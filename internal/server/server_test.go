package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testServer wires a Server with the given session capacity onto httptest.
func testServer(t *testing.T, capacity int) (*Server, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	mgr := NewManager(ctx, capacity, time.Hour)
	s := New(mgr, nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
		cancel()
	})
	return s, ts
}

// doJSON posts v (or GETs/DELETEs with a nil body) and decodes the reply into
// out, returning the status code.
func doJSON(t *testing.T, method, url string, v, out any) int {
	t.Helper()
	var body io.Reader
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// mustCreateDataset loads a small deterministic uniform dataset.
func mustCreateDataset(t *testing.T, base, name string) {
	t.Helper()
	req := DatasetRequest{Name: name, Kind: "uniform", Relations: 4, N: 150, Domain: 30, Seed: 7}
	var resp DatasetResponse
	if st := doJSON(t, http.MethodPost, base+"/v1/datasets", req, &resp); st != http.StatusCreated {
		t.Fatalf("create dataset: status %d", st)
	}
	if len(resp.Relations) != 4 || resp.Relations[0].Rows != 150 {
		t.Fatalf("dataset response %+v", resp)
	}
}

// mustOpenQuery opens a session and returns its id.
func mustOpenQuery(t *testing.T, base string, req QueryRequest) QueryResponse {
	t.Helper()
	var resp QueryResponse
	if st := doJSON(t, http.MethodPost, base+"/v1/queries", req, &resp); st != http.StatusCreated {
		t.Fatalf("create query: status %d", st)
	}
	if resp.ID == "" {
		t.Fatal("empty session id")
	}
	return resp
}

// nextPage fetches one page and sanity-checks the status.
func nextPage(t *testing.T, base, id string, k int) NextResponse {
	t.Helper()
	var resp NextResponse
	url := fmt.Sprintf("%s/v1/queries/%s/next?k=%d", base, id, k)
	if st := doJSON(t, http.MethodGet, url, nil, &resp); st != http.StatusOK {
		t.Fatalf("next: status %d", st)
	}
	return resp
}

func weightOf(t *testing.T, r WireRow) float64 {
	t.Helper()
	w, ok := r.Weight.(float64)
	if !ok {
		t.Fatalf("weight %v (%T) is not float64", r.Weight, r.Weight)
	}
	return w
}

// valsOf returns a row's decoded vals array (JSON numbers and strings).
func valsOf(t *testing.T, r WireRow) []any {
	t.Helper()
	vals, ok := r.Vals.([]any)
	if !ok {
		t.Fatalf("vals %v (%T) is not an array", r.Vals, r.Vals)
	}
	return vals
}

// TestPagingPreservesRankOrder drains one session in pages and checks the
// concatenation is exactly the ranked stream: contiguous ranks, non-decreasing
// weights, and identical to a single big page from a fresh session.
func TestPagingPreservesRankOrder(t *testing.T) {
	_, ts := testServer(t, 16)
	mustCreateDataset(t, ts.URL, "d")

	paged := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Query: "path4"})
	var got []WireRow
	for {
		page := nextPage(t, ts.URL, paged.ID, 997)
		got = append(got, page.Rows...)
		if page.Done {
			break
		}
	}
	if len(got) == 0 {
		t.Fatal("no results")
	}
	for i, r := range got {
		if r.Rank != i+1 {
			t.Fatalf("row %d has rank %d", i, r.Rank)
		}
		if i > 0 && weightOf(t, got[i-1]) > weightOf(t, r) {
			t.Fatalf("rank %d weight %v > rank %d weight %v", i, got[i-1].Weight, i+1, r.Weight)
		}
	}

	// Paging past the end is idempotent, not an error.
	again := nextPage(t, ts.URL, paged.ID, 5)
	if !again.Done || len(again.Rows) != 0 {
		t.Fatalf("page past end: %+v", again)
	}

	whole := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Query: "path4"})
	all := nextPage(t, ts.URL, whole.ID, maxPageK)
	if len(all.Rows) != len(got) {
		t.Fatalf("paged drain has %d rows, single drain %d", len(got), len(all.Rows))
	}
	for i := range all.Rows {
		if weightOf(t, all.Rows[i]) != weightOf(t, got[i]) {
			t.Fatalf("rank %d: paged weight %v != drained weight %v", i+1, got[i].Weight, all.Rows[i].Weight)
		}
	}
}

// TestInterleavedSessionsPageIndependently opens two sessions over the same
// dataset and alternates next calls between them; each must deliver its own
// ranked stream unaffected by the other's cursor.
func TestInterleavedSessionsPageIndependently(t *testing.T) {
	_, ts := testServer(t, 16)
	mustCreateDataset(t, ts.URL, "d")

	// A reference stream to compare both interleaved sessions against.
	ref := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Query: "star3"})
	want := nextPage(t, ts.URL, ref.ID, 40).Rows
	if len(want) < 20 {
		t.Fatalf("reference stream too short: %d rows", len(want))
	}

	s1 := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Query: "star3"})
	s2 := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Query: "star3"})
	var got1, got2 []WireRow
	for i := 0; i < 4; i++ {
		got1 = append(got1, nextPage(t, ts.URL, s1.ID, 5).Rows...)
		got2 = append(got2, nextPage(t, ts.URL, s2.ID, 3).Rows...)
	}
	if len(got1) != 20 || len(got2) != 12 {
		t.Fatalf("page sizes: got1=%d got2=%d", len(got1), len(got2))
	}
	for i, r := range got1 {
		if r.Rank != i+1 || weightOf(t, r) != weightOf(t, want[i]) {
			t.Fatalf("session1 row %d = %+v, want weight %v", i, r, want[i].Weight)
		}
	}
	for i, r := range got2 {
		if r.Rank != i+1 || weightOf(t, r) != weightOf(t, want[i]) {
			t.Fatalf("session2 row %d = %+v, want weight %v", i, r, want[i].Weight)
		}
	}
}

// TestUnknownAndEvictedSessions404 checks the structured not-found contract
// for never-existing, explicitly deleted, and LRU-evicted sessions.
func TestUnknownAndEvictedSessions404(t *testing.T) {
	_, ts := testServer(t, 1) // capacity 1 forces LRU eviction below
	mustCreateDataset(t, ts.URL, "d")

	check404 := func(method, url string) {
		t.Helper()
		var er ErrorResponse
		if st := doJSON(t, method, url, nil, &er); st != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", method, url, st)
		}
		if er.Error.Code != CodeSessionNotFound {
			t.Fatalf("%s %s: code %q, want %q", method, url, er.Error.Code, CodeSessionNotFound)
		}
		if er.Error.Message == "" {
			t.Fatal("empty error message")
		}
	}

	check404(http.MethodGet, ts.URL+"/v1/queries/doesnotexist/next?k=1")
	check404(http.MethodGet, ts.URL+"/v1/queries/doesnotexist")
	check404(http.MethodDelete, ts.URL+"/v1/queries/doesnotexist")

	evictee := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Query: "path2"})
	if got := nextPage(t, ts.URL, evictee.ID, 1); len(got.Rows) != 1 {
		t.Fatalf("live session should page: %+v", got)
	}
	mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Query: "path2"}) // evicts evictee
	check404(http.MethodGet, ts.URL+"/v1/queries/"+evictee.ID+"/next?k=1")

	// Explicit delete also yields the structured 404 afterwards.
	kept := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Query: "path2"})
	if st := doJSON(t, http.MethodDelete, ts.URL+"/v1/queries/"+kept.ID, nil, nil); st != http.StatusNoContent {
		t.Fatalf("delete: status %d", st)
	}
	check404(http.MethodGet, ts.URL+"/v1/queries/"+kept.ID)
}

// TestCSVUploadAndDatalog exercises the ingest path end-to-end: CSV upload
// (declared schema and inferred schema), a Datalog query over the uploaded
// relations, and the exact ranked output.
func TestCSVUploadAndDatalog(t *testing.T) {
	_, ts := testServer(t, 16)

	upload := func(rel, attrs, body string) {
		t.Helper()
		url := ts.URL + "/v1/datasets/up/relations/" + rel
		if attrs != "" {
			url += "?attrs=" + attrs
		}
		resp, err := http.Post(url, "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatalf("upload %s: %v", rel, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("upload %s: status %d body %s", rel, resp.StatusCode, raw)
		}
	}
	// R1 declares its schema; R2 relies on inference (LoadCSVAutoTyped).
	upload("R1", "A,B", "1,10,1.0\n2,20,5.0\n")
	upload("R2", "", "# inferred schema\n10,100,2.0\n10,101,4.0\n20,200,1.0\n")

	q := mustOpenQuery(t, ts.URL, QueryRequest{
		Dataset: "up",
		Datalog: "Q(*) :- R1(x,y), R2(y,z)",
	})
	if want := []string{"x", "y", "z"}; strings.Join(q.Vars, ",") != strings.Join(want, ",") {
		t.Fatalf("vars %v, want %v", q.Vars, want)
	}
	page := nextPage(t, ts.URL, q.ID, 10)
	if !page.Done || len(page.Rows) != 3 {
		t.Fatalf("page %+v, want 3 rows done", page)
	}
	wantWeights := []float64{3, 5, 6}
	wantTop := []int64{1, 10, 100}
	for i, w := range wantWeights {
		if weightOf(t, page.Rows[i]) != w {
			t.Fatalf("rank %d weight %v, want %v", i+1, page.Rows[i].Weight, w)
		}
	}
	for i, v := range wantTop {
		// JSON round-trips int64 vals as float64 numbers.
		if valsOf(t, page.Rows[0])[i] != float64(v) {
			t.Fatalf("top row vals %v, want %v", page.Rows[0].Vals, wantTop)
		}
	}
}

// TestLexicographicSession proves the type-erased wrapper serves vector
// weights: the lex dioid's weight arrives as a JSON array per row.
func TestLexicographicSession(t *testing.T) {
	_, ts := testServer(t, 16)
	mustCreateDataset(t, ts.URL, "d")

	q := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Query: "path2", Dioid: "lex", Algorithm: "Recursive"})
	page := nextPage(t, ts.URL, q.ID, 8)
	if len(page.Rows) == 0 {
		t.Fatal("no rows")
	}
	var prev []float64
	for _, r := range page.Rows {
		raw, ok := r.Weight.([]any)
		if !ok {
			t.Fatalf("lex weight %v (%T), want array", r.Weight, r.Weight)
		}
		if len(raw) != 2 {
			t.Fatalf("lex weight arity %d, want 2", len(raw))
		}
		vec := make([]float64, len(raw))
		for i, x := range raw {
			vec[i] = x.(float64)
		}
		if prev != nil {
			less := false
			for i := range vec {
				if prev[i] != vec[i] {
					less = prev[i] < vec[i]
					break
				}
			}
			if !less && fmt.Sprint(prev) != fmt.Sprint(vec) {
				t.Fatalf("lex order violated: %v then %v", prev, vec)
			}
		}
		prev = vec
	}
}

// TestBadRequests checks the structured 400/404 contract on the create paths.
func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, 16)
	mustCreateDataset(t, ts.URL, "d")

	cases := []struct {
		name string
		req  QueryRequest
		code string
		st   int
	}{
		{"missing dataset", QueryRequest{Dataset: "nope", Query: "path2"}, CodeDatasetNotFound, http.StatusNotFound},
		{"no query", QueryRequest{Dataset: "d"}, CodeBadRequest, http.StatusBadRequest},
		{"bad family", QueryRequest{Dataset: "d", Query: "hexagon7"}, CodeBadRequest, http.StatusBadRequest},
		{"bad dioid", QueryRequest{Dataset: "d", Query: "path2", Dioid: "entropy"}, CodeBadRequest, http.StatusBadRequest},
		{"bad algorithm", QueryRequest{Dataset: "d", Query: "path2", Algorithm: "Quantum"}, CodeBadRequest, http.StatusBadRequest},
		{"bad datalog", QueryRequest{Dataset: "d", Datalog: "Q(*) <- R1(x)"}, CodeBadRequest, http.StatusBadRequest},
		{"both query and datalog", QueryRequest{Dataset: "d", Query: "path2", Datalog: "Q(*) :- R1(x,y)"}, CodeBadRequest, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var er ErrorResponse
		if st := doJSON(t, http.MethodPost, ts.URL+"/v1/queries", tc.req, &er); st != tc.st {
			t.Fatalf("%s: status %d, want %d", tc.name, st, tc.st)
		}
		if er.Error.Code != tc.code {
			t.Fatalf("%s: code %q, want %q", tc.name, er.Error.Code, tc.code)
		}
	}

	var er ErrorResponse
	if st := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", DatasetRequest{Name: "x", Kind: "lava"}, &er); st != http.StatusBadRequest {
		t.Fatalf("bad kind: status %d", st)
	}
	if st := doJSON(t, http.MethodGet, ts.URL+"/v1/queries/whatever/next?k=zero", nil, &er); st != http.StatusNotFound {
		// Unknown id wins over bad k; now check bad k on a live session.
		t.Fatalf("bad k unknown id: status %d", st)
	}
	q := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Query: "path2"})
	if st := doJSON(t, http.MethodGet, ts.URL+"/v1/queries/"+q.ID+"/next?k=-3", nil, &er); st != http.StatusBadRequest {
		t.Fatalf("negative k: status %d", st)
	}
	if er.Error.Code != CodeBadRequest {
		t.Fatalf("negative k code %q", er.Error.Code)
	}
}

// TestMetricsAndHealth sanity-checks the observability endpoints.
func TestMetricsAndHealth(t *testing.T) {
	_, ts := testServer(t, 16)
	mustCreateDataset(t, ts.URL, "d")
	q := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Query: "path2"})
	nextPage(t, ts.URL, q.ID, 5)

	var m MetricsResponse
	if st := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if m.DatasetsCreated != 1 || m.SessionsCreated != 1 || m.SessionsLive != 1 || m.RowsServed != 5 || m.Requests < 3 {
		t.Fatalf("metrics %+v", m)
	}

	// A query with a pushed-down predicate builds memoized filtered access
	// structures; both index gauges must pick them up.
	fq := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Datalog: "q(*) :- R1(x, y | x >= 0)"})
	nextPage(t, ts.URL, fq.ID, 3)
	var m2 MetricsResponse
	if st := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, &m2); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if m2.FilteredIndexEntries < 1 || m2.IndexEntries < m2.FilteredIndexEntries {
		t.Fatalf("index gauges %d/%d after filtered query, want filtered >= 1 and total >= filtered",
			m2.IndexEntries, m2.FilteredIndexEntries)
	}

	var h map[string]string
	if st := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &h); st != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", st, h)
	}
}

// TestSessionStatus checks the resumability introspection endpoint.
func TestSessionStatus(t *testing.T) {
	_, ts := testServer(t, 16)
	mustCreateDataset(t, ts.URL, "d")
	q := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Query: "path3", Algorithm: "Lazy"})
	nextPage(t, ts.URL, q.ID, 4)

	var st SessionResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/queries/"+q.ID, nil, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.Served != 4 || st.Done || st.Algorithm != "Lazy" || st.Dioid != "min" {
		t.Fatalf("session status %+v", st)
	}
	page := nextPage(t, ts.URL, q.ID, 2)
	if page.Rows[0].Rank != 5 {
		t.Fatalf("resumed rank %d, want 5", page.Rows[0].Rank)
	}
}

// TestGHDQuerySession: a cyclic CQ that is not a simple cycle (triangle with
// a pendant edge) must open a session routed through the hypertree planner,
// report the plan on both the open and status responses, and page rows in
// non-decreasing rank order.
func TestGHDQuerySession(t *testing.T) {
	_, ts := testServer(t, 4)
	mustCreateDataset(t, ts.URL, "d")
	open := mustOpenQuery(t, ts.URL, QueryRequest{
		Dataset: "d",
		Datalog: "Q(*) :- R1(a,b), R2(b,c), R3(c,a), R4(c,d)",
	})
	if open.Plan == nil || open.Plan.Route != "ghd" {
		t.Fatalf("open response plan = %+v, want ghd route", open.Plan)
	}
	if open.Plan.Width < 2 || len(open.Plan.Bags) == 0 {
		t.Fatalf("ghd plan missing width/bags: %+v", open.Plan)
	}
	var status SessionResponse
	if st := doJSON(t, http.MethodGet, ts.URL+"/v1/queries/"+open.ID, nil, &status); st != http.StatusOK {
		t.Fatalf("status: %d", st)
	}
	if status.Plan == nil || status.Plan.Route != "ghd" {
		t.Fatalf("status plan = %+v, want ghd route", status.Plan)
	}
	prev := -1.0
	for page := 0; page < 3; page++ {
		var next NextResponse
		if st := doJSON(t, http.MethodGet, ts.URL+"/v1/queries/"+open.ID+"/next?k=20", nil, &next); st != http.StatusOK {
			t.Fatalf("next: %d", st)
		}
		for _, row := range next.Rows {
			w, ok := row.Weight.(float64)
			if !ok {
				t.Fatalf("weight %T, want float64", row.Weight)
			}
			if w < prev {
				t.Fatalf("rank %d weight %v < previous %v", row.Rank, w, prev)
			}
			prev = w
		}
		if next.Done {
			break
		}
	}
}

// TestCliqueFamilySession: the clique<k> family resolves server-side and
// routes through the planner for k >= 4.
func TestCliqueFamilySession(t *testing.T) {
	_, ts := testServer(t, 4)
	req := DatasetRequest{Name: "d6", Kind: "uniform", Relations: 6, N: 60, Domain: 6, Seed: 11}
	var dresp DatasetResponse
	if st := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", req, &dresp); st != http.StatusCreated {
		t.Fatalf("create dataset: status %d", st)
	}
	open := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d6", Query: "clique4"})
	if open.Plan == nil || open.Plan.Route != "ghd" {
		t.Fatalf("clique4 plan = %+v, want ghd route", open.Plan)
	}
}

// TestPlanCacheSharedAcrossSessions: a second session on the same dataset
// must reuse the first one's compiled plan — visible as plan-cache hits in
// the metrics — and still serve the identical ranked stream.
func TestPlanCacheSharedAcrossSessions(t *testing.T) {
	_, ts := testServer(t, 16)
	mustCreateDataset(t, ts.URL, "d")

	first := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Query: "path4"})
	cold := nextPage(t, ts.URL, first.ID, maxPageK)
	var m1 MetricsResponse
	if st := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, &m1); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if m1.PlanCacheMisses == 0 || m1.PlanCacheEntries == 0 {
		t.Fatalf("after a cold session: %+v, want misses and entries", m1)
	}

	second := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Query: "path4"})
	warm := nextPage(t, ts.URL, second.ID, maxPageK)
	var m2 MetricsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, &m2)
	if m2.PlanCacheHits <= m1.PlanCacheHits {
		t.Fatalf("warm session produced no cache hits: %+v -> %+v", m1, m2)
	}
	if len(warm.Rows) != len(cold.Rows) {
		t.Fatalf("warm stream %d rows, cold %d", len(warm.Rows), len(cold.Rows))
	}
	for i := range warm.Rows {
		if weightOf(t, warm.Rows[i]) != weightOf(t, cold.Rows[i]) {
			t.Fatalf("rank %d: warm %v cold %v", i+1, warm.Rows[i].Weight, cold.Rows[i].Weight)
		}
	}
}

// TestPlanCacheInvalidatedByUpload: replacing a relation via upload must
// flush the dataset's cache, and a new session must see the new rows.
func TestPlanCacheInvalidatedByUpload(t *testing.T) {
	_, ts := testServer(t, 16)
	upload := func(rel, body string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/datasets/up/relations/"+rel+"?attrs=A,B", "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatalf("upload %s: %v", rel, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: status %d", rel, resp.StatusCode)
		}
	}
	upload("R1", "1,10,1.0\n")
	upload("R2", "10,100,2.0\n")
	open := func() NextResponse {
		q := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "up", Datalog: "Q(*) :- R1(x,y), R2(y,z)"})
		return nextPage(t, ts.URL, q.ID, 10)
	}
	before := open()
	if len(before.Rows) != 1 {
		t.Fatalf("before upload: %d rows", len(before.Rows))
	}
	warmed := open() // fills and then reuses the cache
	if len(warmed.Rows) != 1 {
		t.Fatalf("warm session: %d rows", len(warmed.Rows))
	}
	var m1 MetricsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, &m1)

	// Replace R2 with two matching rows: the next session must see both.
	upload("R2", "10,100,2.0\n10,101,4.0\n")
	var m2 MetricsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, &m2)
	if m2.PlanCacheEntries != 0 {
		t.Fatalf("upload left %d stale cache entries", m2.PlanCacheEntries)
	}
	after := open()
	if len(after.Rows) != 2 {
		t.Fatalf("after upload: %d rows, want 2", len(after.Rows))
	}
}
