package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anyk/internal/obs"
)

// postJSON is doJSON with access to the raw response, for header assertions.
func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// TestMaxSessionsReturns429 drives the session admission limit end to end:
// the rejection is a structured 429 with Retry-After, it is visible in both
// metrics surfaces, and draining the blocking session readmits new work.
func TestMaxSessionsReturns429(t *testing.T) {
	s, ts := testServer(t, 8)
	s.MaxSessions = 1
	mustCreateDataset(t, ts.URL, "adm")

	q := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "adm", Query: "path3"})

	// The table holds one live (not drained) session: the next create must be
	// rejected, not admitted and not evict the live session.
	resp := postJSON(t, ts.URL+"/v1/queries", QueryRequest{Dataset: "adm", Query: "path3"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != CodeSessionLimit || er.Error.RetryAfterSeconds != 1 {
		t.Fatalf("error body %+v, want code %q with retry_after_seconds 1", er.Error, CodeSessionLimit)
	}
	if _, err := s.Sessions.Acquire(q.ID); err != nil {
		t.Fatalf("live session was disturbed by admission: %v", err)
	}

	// Both metrics surfaces report the rejection.
	var mr MetricsResponse
	if st := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, &mr); st != http.StatusOK {
		t.Fatalf("/v1/metrics status %d", st)
	}
	if mr.AdmissionRejected != 1 {
		t.Fatalf("admission_rejected = %d, want 1", mr.AdmissionRejected)
	}
	prom, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promBody, _ := io.ReadAll(prom.Body)
	prom.Body.Close()
	if !strings.Contains(string(promBody), `anykd_admission_rejected_total{reason="sessions"} 1`) {
		t.Fatalf("Prometheus exposition lacks the admission counter:\n%s", promBody)
	}

	// Drain the session; Admit must reclaim it and admit the next create.
	for !nextPage(t, ts.URL, q.ID, 1000).Done {
	}
	mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "adm", Query: "path3"})
}

// TestMaxInflightRejectsExcess exercises the request-concurrency cap against
// the middleware directly (the same way TestPanicRecoveryMiddleware does),
// with a handler parked on a channel to hold the only slot.
func TestMaxInflightRejectsExcess(t *testing.T) {
	mgr := NewManager(context.Background(), 4, 0)
	defer mgr.Close()
	s := New(mgr, nil)
	s.MaxInflight = 1

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	h := s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
			w.WriteHeader(http.StatusOK)
			return
		}
		once.Do(func() { close(entered) })
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	defer close(release)

	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/slow")
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered

	// Slot is held: a second request is turned away immediately.
	resp, err := http.Get(ts.URL + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != CodeOverloaded {
		t.Fatalf("code %q, want %q", er.Error.Code, CodeOverloaded)
	}

	// Observability endpoints bypass the cap even while saturated.
	for _, path := range []string{"/healthz", "/metrics"} {
		r2, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusOK {
			t.Fatalf("GET %s under saturation: status %d, want 200", path, r2.StatusCode)
		}
	}

	release <- struct{}{}
	if err := <-errc; err != nil {
		t.Fatalf("parked request failed: %v", err)
	}
}

// TestManagerAdmitReclaimsDrained checks the reclaim order at the Manager
// level: drained sessions free capacity for admission, live ones never do.
func TestManagerAdmitReclaimsDrained(t *testing.T) {
	m := NewManager(context.Background(), 8, time.Hour)
	a := m.Create(newStub(), "qa", "min", "Take2")
	b := m.Create(newStub(), "qb", "min", "Take2")

	if m.Admit(2) {
		t.Fatal("admitted past the limit with two live sessions")
	}
	var evicted []string
	m.OnEvict = func(s *Session, reason string) { evicted = append(evicted, s.ID+":"+reason) }
	a.MarkDone()
	if !m.Admit(2) {
		t.Fatal("drained session not reclaimed for admission")
	}
	if len(evicted) != 1 || evicted[0] != a.ID+":drained" {
		t.Fatalf("OnEvict calls %v, want [%s:drained]", evicted, a.ID)
	}
	if _, err := m.Acquire(b.ID); err != nil {
		t.Fatalf("live session evicted by Admit: %v", err)
	}
	if _, err := m.Acquire(a.ID); err != ErrSessionNotFound {
		t.Fatalf("drained session should be gone, got err=%v", err)
	}
}

// TestRequestIDAssignedAndEchoed covers the request-id middleware: a caller
// id round-trips, and absent one the server mints one.
func TestRequestIDAssignedAndEchoed(t *testing.T) {
	_, ts := testServer(t, 4)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-7" {
		t.Fatalf("X-Request-Id = %q, want caller-7", got)
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); len(got) != 16 {
		t.Fatalf("minted X-Request-Id = %q, want 16 hex chars", got)
	}
}

// TestServesMixedLoadUnderAdmissionLimits runs a mixed client population
// against both admission limits at once: 8 clients loop a session:stats:upload
// mix of 8:1:1 for one second. A session is a create, two pages and a
// delete; stats polls the most recent session; an upload posts an 8-row CSV
// to a scratch dataset. Every answer must be 2xx or a 429 (or a 404 from
// stats on a session already deleted), the load must both complete sessions
// and draw 429s, and the server's rejection counter must match the 429s the
// clients saw, in an exposition that still validates.
func TestServesMixedLoadUnderAdmissionLimits(t *testing.T) {
	s, ts := testServer(t, 16)
	s.MaxSessions = 4
	s.MaxInflight = 3
	mustCreateDataset(t, ts.URL, "load")

	const clients = 8
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer hc.CloseIdleConnections()

	var rejected, completed atomic.Int64
	var recent atomic.Value // string: the most recently created session id
	// call issues one request and returns its status, counting 429s and
	// flagging any status outside 2xx/429 unless tolerated.
	call := func(method, path, contentType, body string, tolerated int, out any) int {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Errorf("%s %s: %v", method, path, err)
			return 0
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		switch st := resp.StatusCode; {
		case st == http.StatusTooManyRequests:
			rejected.Add(1)
		case st/100 == 2:
			if out != nil {
				if err := json.Unmarshal(raw, out); err != nil {
					t.Errorf("%s %s: decode %q: %v", method, path, raw, err)
				}
			}
		case st != tolerated:
			t.Errorf("%s %s: status %d: %s", method, path, st, raw)
		}
		return resp.StatusCode
	}

	session := func() {
		var q QueryResponse
		if call(http.MethodPost, "/v1/queries", "application/json",
			`{"dataset":"load","query":"path3"}`, 0, &q) != http.StatusCreated {
			return
		}
		recent.Store(q.ID)
		pages := 0
		for range 2 {
			if call(http.MethodGet, "/v1/queries/"+q.ID+"/next?k=10", "", "", 0, nil) == http.StatusOK {
				pages++
			}
		}
		// A delete turned away by the in-flight cap is retried: a session
		// left live would hold an admission slot for its whole TTL.
		st := http.StatusTooManyRequests
		for st == http.StatusTooManyRequests {
			st = call(http.MethodDelete, "/v1/queries/"+q.ID, "", "", 0, nil)
		}
		if pages == 2 && st == http.StatusNoContent {
			completed.Add(1)
		}
	}
	stats := func() {
		path := "/v1/metrics"
		if id, _ := recent.Load().(string); id != "" {
			path = "/v1/queries/" + id + "/stats"
		}
		call(http.MethodGet, path, "", "", http.StatusNotFound, nil)
	}
	upload := func(rng *rand.Rand) {
		var csv strings.Builder
		for range 8 {
			fmt.Fprintf(&csv, "%d,%d,%d\n", rng.Intn(50), rng.Intn(50), 1+rng.Intn(9))
		}
		call(http.MethodPost, "/v1/datasets/load-scratch/relations/S", "text/csv", csv.String(), 0, nil)
	}

	deadline := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for time.Now().Before(deadline) {
				switch n := rng.Intn(10); {
				case n < 8:
					session()
				case n == 8:
					stats()
				default:
					upload(rng)
				}
			}
		}()
	}
	wg.Wait()

	if completed.Load() == 0 {
		t.Error("no session completed under load")
	}
	if rejected.Load() == 0 {
		t.Error("no request was turned away: the admission limits were never reached")
	}
	exposition := scrapeMetrics(t, ts.URL)
	if err := obs.ValidateExposition(strings.NewReader(exposition)); err != nil {
		t.Fatalf("exposition after load is not valid: %v", err)
	}
	var counted float64
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "anykd_admission_rejected_total{") {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			counted += v
		}
	}
	if int64(counted) != rejected.Load() {
		t.Errorf("anykd_admission_rejected_total sums to %v, clients saw %d 429s", counted, rejected.Load())
	}
	t.Logf("%d sessions completed, %d requests rejected", completed.Load(), rejected.Load())
}
