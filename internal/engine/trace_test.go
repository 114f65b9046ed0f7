package engine

import (
	"fmt"
	"testing"

	"anyk/internal/core"
	"anyk/internal/dataset"
	"anyk/internal/dioid"
	"anyk/internal/obs"
	"anyk/internal/query"
)

// drainAll exhausts an iterator and returns the row count.
func drainAll[W any](it *Iterator[W]) int {
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			return n
		}
		n++
	}
}

// spanNames flattens a trace snapshot into name → duration for assertions.
func spanNames(s obs.TraceSnapshot) map[string]float64 {
	out := map[string]float64{}
	for _, sp := range s.Spans {
		out[sp.Name] = sp.DurationSeconds
	}
	return out
}

// TestTraceCoversPhasesSerialAndParallel drains the same workload on both
// execution paths and checks the trace carries closed compile/build/merge/
// first-next spans, a populated delay histogram, and final MEM(k) counters
// that agree with the iterator's own Stats.
func TestTraceCoversPhasesSerialAndParallel(t *testing.T) {
	db := dataset.Uniform(4, 60, 1)
	q := query.PathQuery(4)
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			tr := obs.NewTrace()
			it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Take2, Options{Parallelism: p, Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			n := drainAll(it)
			if n == 0 {
				t.Fatal("no results")
			}
			s := tr.Snapshot()
			names := spanNames(s)
			for _, want := range []string{"compile", "build", "merge", "first-next"} {
				d, ok := names[want]
				if !ok {
					t.Fatalf("missing span %q in %v", want, names)
				}
				if d <= 0 {
					t.Fatalf("span %q duration %g, want > 0", want, d)
				}
			}
			// The tree names the two phases the benchmark times, as children
			// of its own span, at every parallelism.
			for _, phase := range []string{"graph-build", "bottom-up"} {
				found := false
				for _, sp := range s.Spans {
					if sp.Name == phase && sp.Parent >= 0 && s.Spans[sp.Parent].Name == "tree-0" && sp.DurationSeconds >= 0 {
						found = true
					}
				}
				if !found {
					t.Fatalf("no closed %q span under tree-0: %v", phase, names)
				}
			}
			// 4 stages of 60 rows and the root, built once whatever p is.
			if got := tr.Counter("dp_states"); got != 241 {
				t.Fatalf("dp_states = %d, want 241", got)
			}
			for _, c := range []string{"dp_groups", "dp_largest_group", "dp_bytes"} {
				if tr.Counter(c) <= 0 {
					t.Fatalf("counter %s = %d, want > 0", c, tr.Counter(c))
				}
			}
			if s.Delays.Count < uint64(n-1) {
				t.Fatalf("delay histogram has %d observations for %d rows", s.Delays.Count, n)
			}
			st := it.Stats()
			if st.CandidatesInserted == 0 || st.MaxQueueSize == 0 {
				t.Fatalf("iterator stats empty: %+v", st)
			}
			if got := tr.Counter("candidates_inserted"); got != int64(st.CandidatesInserted) {
				t.Fatalf("trace candidates %d != iterator %d", got, st.CandidatesInserted)
			}
			if got := tr.Counter("max_queue_size"); got != int64(st.MaxQueueSize) {
				t.Fatalf("trace max_queue %d != iterator %d", got, st.MaxQueueSize)
			}
		})
	}
}

// TestDPCountersIndependentOfParallelism: each tree's graph is built once
// whatever the parallelism — parallel sessions enumerate views of it — so
// the state-space counters at p=4 equal the serial ones on every route.
func TestDPCountersIndependentOfParallelism(t *testing.T) {
	for route, q := range map[string]*query.CQ{
		"acyclic":      query.PathQuery(4),
		"simple-cycle": query.CycleQuery(4),
		"ghd":          query.CliqueQuery(4),
	} {
		db := dataset.Uniform(len(q.Atoms), 60, 1)
		counters := func(p int) [2]int64 {
			tr := obs.NewTrace()
			it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Take2, Options{Parallelism: p, Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			it.Close()
			if it.Plan.Route != route {
				t.Fatalf("%s: route %s, want %s", q.Name, it.Plan.Route, route)
			}
			return [2]int64{tr.Counter("dp_states"), tr.Counter("dp_bytes")}
		}
		serial, parallel := counters(1), counters(4)
		if serial[0] <= 0 || serial != parallel {
			t.Fatalf("%s: (dp_states, dp_bytes) = %v at p=1, %v at p=4", route, serial, parallel)
		}
	}
}

// TestTracePlanCacheHitCounter: the second session over an unchanged
// database must record plan_cache_hit=1 where the first recorded 0.
func TestTracePlanCacheHitCounter(t *testing.T) {
	db := dataset.Uniform(3, 20, 1)
	q := query.PathQuery(3)
	cache := NewCache(0)
	for i, want := range []int64{0, 1} {
		tr := obs.NewTrace()
		it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Take2, Options{Parallelism: 1, Cache: cache, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		it.Close()
		if got := tr.Counter("plan_cache_hit"); got != want {
			t.Fatalf("session %d: plan_cache_hit = %d, want %d", i, got, want)
		}
		// The graph's size is reported whether it was built or found.
		if got := tr.Counter("dp_states"); got != 61 {
			t.Fatalf("session %d: dp_states = %d, want 61", i, got)
		}
	}
}

// TestEnumerateWithoutTracer: the nil-tracer path must still work and report
// stats (no instrumentation required to read MEM(k)).
func TestEnumerateWithoutTracer(t *testing.T) {
	db := dataset.Uniform(3, 20, 1)
	it, err := Enumerate[float64](db, query.PathQuery(3), dioid.Tropical{}, core.Take2, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := drainAll(it); n == 0 {
		t.Fatal("no results")
	}
	if st := it.Stats(); st.CandidatesInserted == 0 {
		t.Fatalf("stats empty without tracer: %+v", st)
	}
}

// BenchmarkTraceOverhead compares the serial fig10a drain with and without a
// tracer attached — the ≤5% overhead budget from the acceptance criteria.
// Compare with: go test -bench TraceOverhead -benchtime 5x ./internal/engine/
func BenchmarkTraceOverhead(b *testing.B) {
	db := dataset.Uniform(4, 1000, 1)
	q := query.PathQuery(4)
	run := func(b *testing.B, tr func() *obs.Trace) {
		for i := 0; i < b.N; i++ {
			it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Take2, Options{Parallelism: 1, Tracer: tr()})
			if err != nil {
				b.Fatal(err)
			}
			if n := drainAll(it); n == 0 {
				b.Fatal("no results")
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, func() *obs.Trace { return nil }) })
	b.Run("on", func(b *testing.B) { run(b, obs.NewTrace) })
}
