package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anyk/internal/datalog"
)

// FuzzCreateQuery drives the query endpoint with arbitrary client input: the
// Datalog query or program, and the dioid, semantics and algorithm names, over
// a tiny uniform dataset. Whatever the input, creating the session and
// reading its first page must answer below 500 — a bad query is the client's
// error, never the server's. Inputs are capped at five atoms (counted by
// their opening parentheses) so no seed or mutation can ask for a join
// larger than 30^4 rows, and recursive strata at 64 passes so a diverging
// fixpoint (reachability under max) fails fast instead of stalling a worker.
func FuzzCreateQuery(f *testing.F) {
	f.Add("Q(*) :- R1(x,y), R2(y,z)", "", "", "", "")
	f.Add("Q(x) :- R1(x,y), R2(y,z)", "", "max", "min", "Recursive")
	f.Add("Q(*) :- R1(x,y | x > 2), R2(y,z), R3(z,x)", "", "lex", "", "Lazy")
	f.Add("Q(y) :- R1(_, y)", "", "maxtimes", "all", "Batch")
	f.Add("Q(x) :- R1(x,y), R2(y,z), R3(z,w), R4(w,x)", "", "minmax", "min", "Eager")
	f.Add("", "p(x, y) :- R1(x, y).\np(x, z) :- p(x, y), R2(y, z).", "max", "", "All")
	f.Add("", "a(x) :- R1(x, y), not R2(y, 0).\n?- a(x).", "min", "", "Take2")
	f.Add("Q(*) :- R9(x,y)", "", "nope", "sometimes", "Quick")
	f.Add("Q(*) :- R1(x,y)", "?- R1(x,y).", "", "", "")

	passes := datalog.MaxFixpointPasses
	datalog.MaxFixpointPasses = 64
	ctx, cancel := context.WithCancel(context.Background())
	mgr := NewManager(ctx, 64, time.Hour)
	h := New(mgr, nil).Handler()
	f.Cleanup(func() {
		mgr.Close()
		cancel()
		datalog.MaxFixpointPasses = passes
	})
	do := func(method, url string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
		return rec
	}
	if rec := do(http.MethodPost, "/v1/datasets",
		[]byte(`{"name":"d","kind":"uniform","relations":4,"n":30,"domain":6,"seed":1}`)); rec.Code != http.StatusCreated {
		f.Fatalf("create dataset: status %d body %s", rec.Code, rec.Body)
	}

	f.Fuzz(func(t *testing.T, datalog, program, dioid, semantics, algorithm string) {
		if strings.Count(datalog, "(")+strings.Count(program, "(") > 5 {
			t.Skip("more than five atoms")
		}
		body, err := json.Marshal(QueryRequest{Dataset: "d", Datalog: datalog, Program: program,
			Dioid: dioid, Semantics: semantics, Algorithm: algorithm})
		if err != nil {
			t.Fatal(err)
		}
		rec := do(http.MethodPost, "/v1/queries", body)
		if rec.Code >= 500 {
			t.Fatalf("create: status %d body %s", rec.Code, rec.Body)
		}
		if rec.Code != http.StatusCreated {
			return
		}
		var q QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
			t.Fatalf("create: decode %s: %v", rec.Body, err)
		}
		if rec := do(http.MethodGet, "/v1/queries/"+q.ID+"/next?k=5", nil); rec.Code >= 500 {
			t.Fatalf("next: status %d body %s", rec.Code, rec.Body)
		}
		do(http.MethodDelete, "/v1/queries/"+q.ID, nil)
	})
}
