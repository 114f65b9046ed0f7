package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"anyk/internal/core"
	"anyk/internal/dataset"
	"anyk/internal/dioid"
	"anyk/internal/engine"
	"anyk/internal/obs"
	"anyk/internal/query"
)

// drainFully pages through the session until the server reports Done,
// returning the total number of rows served.
func drainFully(t *testing.T, base, id string) int {
	t.Helper()
	served := 0
	for i := 0; ; i++ {
		resp := nextPage(t, base, id, 2000)
		served = resp.Served
		if resp.Done {
			return served
		}
		if i > 1000 {
			t.Fatal("session did not drain in 1000 pages")
		}
	}
}

// findPhase returns the first span named name, or fails the test.
func findPhase(t *testing.T, phases []PhaseSpan, name string) PhaseSpan {
	t.Helper()
	for _, p := range phases {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("span %q missing from phases %+v", name, phases)
	return PhaseSpan{}
}

// TestSessionStatsEndToEnd drains a fig10a-shaped parallel session over HTTP
// and checks the /stats snapshot: every execution phase has a recorded
// nonzero duration, the delay histogram counted one delay per row after the
// first, and the MEM(k) counters equal what the same enumeration reports
// in-process — the wire surface must not invent or lose stats.
func TestSessionStatsEndToEnd(t *testing.T) {
	const (
		relations = 4
		n         = 120
		domain    = 30
		seed      = 9
		par       = 2
	)
	_, ts := testServer(t, 16)
	req := DatasetRequest{Name: "d", Kind: "uniform", Relations: relations, N: n, Domain: domain, Seed: seed}
	if st := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", req, nil); st != http.StatusCreated {
		t.Fatalf("create dataset: status %d", st)
	}
	open := mustOpenQuery(t, ts.URL, QueryRequest{
		Dataset: "d", Query: "path4", Algorithm: "Take2", Parallelism: par,
	})
	served := drainFully(t, ts.URL, open.ID)
	if served == 0 {
		t.Fatal("session served no rows")
	}

	// The stats route serves the session /v1/queries minted.
	var stats SessionStatsResponse
	if st := doJSON(t, http.MethodGet, ts.URL+"/v1/queries/"+open.ID+"/stats", nil, &stats); st != http.StatusOK {
		t.Fatalf("session stats: status %d", st)
	}
	if !stats.Done || stats.Served != served {
		t.Fatalf("stats done=%v served=%d, want done after %d rows", stats.Done, stats.Served, served)
	}
	for _, name := range []string{"compile", "build", "merge", "first-next"} {
		if p := findPhase(t, stats.Phases, name); p.DurationSeconds <= 0 {
			t.Fatalf("phase %q duration %v, want > 0", name, p.DurationSeconds)
		}
	}
	// Parallel sessions build each tree once, under its own span, as serial
	// ones do.
	findPhase(t, stats.Phases, "tree-0")
	if stats.Delay == nil {
		t.Fatal("delay stats missing after a drained session")
	}
	if want := uint64(served - 1); stats.Delay.Count != want {
		t.Fatalf("delay count %d, want %d (one per row after the first)", stats.Delay.Count, want)
	}
	if stats.Delay.P50Seconds <= 0 || stats.Delay.P99Seconds < stats.Delay.P50Seconds || stats.Delay.MaxSeconds < stats.Delay.P99Seconds {
		t.Fatalf("delay quantiles inconsistent: %+v", stats.Delay)
	}

	// Ground truth: the identical enumeration run in-process must report the
	// same MEM(k) counters once drained.
	db, err := dataset.Build("uniform", relations, n, domain, seed)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.ParseFamily("path4")
	if err != nil {
		t.Fatal(err)
	}
	it, err := engine.Enumerate[float64](db, q, dioid.Tropical{}, core.Take2, engine.Options{Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	rows := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		rows++
	}
	if rows != served {
		t.Fatalf("in-process run produced %d rows, HTTP session served %d", rows, served)
	}
	want := it.Stats()
	if stats.CandidatesInserted != want.CandidatesInserted || stats.MaxQueueSize != want.MaxQueueSize {
		t.Fatalf("MEM(k) over the wire = (candidates %d, max_queue %d), in-process = (%d, %d)",
			stats.CandidatesInserted, stats.MaxQueueSize, want.CandidatesInserted, want.MaxQueueSize)
	}
	if want.CandidatesInserted == 0 || want.MaxQueueSize == 0 {
		t.Fatalf("ground-truth stats are zero: %+v", want)
	}
}

// scrapeMetrics fetches /metrics and returns the raw exposition.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sampleValue extracts the value of the exposition sample line starting with
// prefix (metric name plus any label set), or -1 when absent.
func sampleValue(t *testing.T, exposition, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, prefix) {
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	return -1
}

// TestPrometheusEndpointValidAndMonotone scrapes /metrics twice around more
// traffic: both scrapes must be valid text exposition, the request histogram
// must be present, and counters must be monotone between scrapes.
func TestPrometheusEndpointValidAndMonotone(t *testing.T) {
	_, ts := testServer(t, 16)
	mustCreateDataset(t, ts.URL, "d")
	q := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Query: "path3"})
	nextPage(t, ts.URL, q.ID, 5)

	first := scrapeMetrics(t, ts.URL)
	if err := obs.ValidateExposition(strings.NewReader(first)); err != nil {
		t.Fatalf("first scrape is not valid exposition: %v\n%s", err, first)
	}
	for _, want := range []string{
		"anykd_rows_served_total",
		"anykd_sessions_live",
		"anykd_http_requests_total",
		"anykd_http_request_seconds_bucket",
		"anykd_http_request_seconds_count",
		"anykd_plan_cache_misses_total",
		"anykd_sessions_opened_total",
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("scrape missing %s:\n%s", want, first)
		}
	}
	rows1 := sampleValue(t, first, "anykd_rows_served_total")
	if rows1 != 5 {
		t.Fatalf("rows_served after one page = %v, want 5", rows1)
	}

	nextPage(t, ts.URL, q.ID, 3)
	second := scrapeMetrics(t, ts.URL)
	if err := obs.ValidateExposition(strings.NewReader(second)); err != nil {
		t.Fatalf("second scrape is not valid exposition: %v", err)
	}
	if rows2 := sampleValue(t, second, "anykd_rows_served_total"); rows2 != 8 {
		t.Fatalf("rows_served not monotone: %v then %v, want 8", rows1, rows2)
	}
}

// TestPanicRecoveryMiddleware routes a panicking handler through the
// instrumentation middleware: the client must see a structured 500, and both
// the registry counter and the /v1/metrics fold must report the recovery.
func TestPanicRecoveryMiddleware(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mgr := NewManager(ctx, 4, time.Hour)
	defer mgr.Close()
	s := New(mgr, nil)

	boom := httptest.NewServer(s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})))
	defer boom.Close()
	var er ErrorResponse
	if st := doJSON(t, http.MethodGet, boom.URL+"/whatever", nil, &er); st != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", st)
	}
	if er.Error.Code != CodeInternal {
		t.Fatalf("panicking handler error code %q, want %q", er.Error.Code, CodeInternal)
	}
	// No mux matched, so the panic lands under the "unmatched" route label.
	got := s.Reg.Counter("anykd_http_panics_total", "Handler panics recovered by the middleware.",
		"route", "unmatched").Value()
	if got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}

	// The JSON metrics view folds the same registry.
	api := httptest.NewServer(s.Handler())
	defer api.Close()
	var m MetricsResponse
	if st := doJSON(t, http.MethodGet, api.URL+"/v1/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("/v1/metrics status %d", st)
	}
	if m.PanicsRecovered != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", m.PanicsRecovered)
	}
	rm, ok := m.Routes["unmatched"]
	if !ok || rm.Errors != 1 {
		t.Fatalf("per-route fold missing the recovered panic: %+v", m.Routes)
	}
}

// TestSessionStatsBeforeDrain: stats on a fresh, partially-paged session must
// already expose the open-phase spans and a live (nonzero) queue counter, and
// must not claim Done.
func TestSessionStatsBeforeDrain(t *testing.T) {
	_, ts := testServer(t, 16)
	mustCreateDataset(t, ts.URL, "d")
	open := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Query: "path4"})
	nextPage(t, ts.URL, open.ID, 3)

	var stats SessionStatsResponse
	url := fmt.Sprintf("%s/v1/queries/%s/stats", ts.URL, open.ID)
	if st := doJSON(t, http.MethodGet, url, nil, &stats); st != http.StatusOK {
		t.Fatalf("session stats: status %d", st)
	}
	if stats.Done {
		t.Fatal("partially-paged session reported Done")
	}
	if stats.Served != 3 {
		t.Fatalf("served %d, want 3", stats.Served)
	}
	findPhase(t, stats.Phases, "compile")
	findPhase(t, stats.Phases, "build")
	if stats.CandidatesInserted <= 0 || stats.MaxQueueSize <= 0 {
		t.Fatalf("live MEM(k) counters not exposed mid-stream: %+v", stats)
	}
}
