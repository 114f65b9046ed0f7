package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestNoGoroutineLeakUnderEvictionChurn is the leak regression test under
// concurrent clients: they page parallel (sharded) sessions mid-stream while
// deletes and LRU capacity evictions race them. Every shard producer must
// unwind — the goroutine count has to return to its pre-churn baseline.
func TestNoGoroutineLeakUnderEvictionChurn(t *testing.T) {
	// Capacity 2 with 4 concurrent clients forces LRU evictions of sessions
	// that are mid-page in another goroutine.
	s, ts := testServer(t, 2)
	s.MaxParallelism = 4
	mustCreateDataset(t, ts.URL, "leak")

	// Warm the HTTP client/transport and the dataset's plan cache so the
	// baseline excludes idle-connection and first-compile goroutines.
	warm := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "leak", Query: "path3", Parallelism: 2})
	nextPage(t, ts.URL, warm.ID, 5)
	doJSON(t, http.MethodDelete, ts.URL+"/v1/queries/"+warm.ID, nil, nil)
	http.DefaultClient.CloseIdleConnections()
	time.Sleep(20 * time.Millisecond)
	before := runtime.NumGoroutine()

	const clients = 4
	const rounds = 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				q := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "leak", Query: "path3", Parallelism: 2})
				// Page a little, then abandon the session three ways by turn:
				// explicit delete, drain to completion, or walk away and let
				// LRU churn from the other clients evict it mid-stream.
				switch i % 3 {
				case 0:
					pageOrGone(t, ts.URL, q.ID, 3)
					doJSON(t, http.MethodDelete, ts.URL+"/v1/queries/"+q.ID, nil, nil)
				case 1:
					for !pageOrGone(t, ts.URL, q.ID, 1000) {
					}
				default:
					pageOrGone(t, ts.URL, q.ID, 2)
				}
			}
		}(c)
	}
	wg.Wait()

	s.Sessions.Close()
	http.DefaultClient.CloseIdleConnections()
	// Producers and the server's per-connection goroutines unwind
	// asynchronously; poll until the count is back at the baseline.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines alive after churn, baseline %d:\n%s",
				runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pageOrGone pages a session, tolerating the 404 that means a concurrent
// client's create LRU-evicted it mid-drain. Reports whether paging is over
// (drained or evicted).
func pageOrGone(t *testing.T, base, id string, k int) bool {
	t.Helper()
	var resp NextResponse
	url := fmt.Sprintf("%s/v1/queries/%s/next?k=%d", base, id, k)
	switch st := doJSON(t, http.MethodGet, url, nil, &resp); st {
	case http.StatusOK:
		return resp.Done
	case http.StatusNotFound:
		return true
	default:
		t.Fatalf("next: status %d", st)
		return true
	}
}
