package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
)

// TestInterleavedEnumeratorsIndependent: several enumerators over one graph
// must not interfere — all per-enumerator state (choice-set structures,
// candidate queues, suffix memos) is private; the graph is read-only after
// BottomUp.
func TestInterleavedEnumeratorsIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(301))
	inputs := randomInputs(r, 4, 12, 3)
	g := buildGraph(t, dioid.Tropical{}, inputs)
	ref := drain(New[float64](g, Batch), 1<<30)
	if len(ref) == 0 {
		t.Skip("empty instance")
	}
	es := []Enumerator[float64]{
		New[float64](g, Take2),
		New[float64](g, Take2),
		New[float64](g, Recursive),
		New[float64](g, Lazy),
	}
	outs := make([][]Solution[float64], len(es))
	for i := 0; i < len(ref); i++ {
		for j, e := range es {
			s, ok := e.Next()
			if !ok {
				t.Fatalf("enumerator %d exhausted early at %d", j, i)
			}
			s.States = append([]int32(nil), s.States...)
			outs[j] = append(outs[j], s)
		}
	}
	for j := range es {
		for i := range ref {
			if outs[j][i].Weight != ref[i].Weight {
				t.Fatalf("enumerator %d rank %d: %v want %v", j, i, outs[j][i].Weight, ref[i].Weight)
			}
		}
	}
}

// shardIters returns one Take2 row iterator per nonempty view of g.Shards(s),
// as the engine's parallel path wires them.
func shardIters(g *dpgraph.Graph[float64], s int) []RowIter[float64] {
	var iters []RowIter[float64]
	for _, v := range g.Shards(s) {
		if !v.Empty() {
			iters = append(iters, NewGraphIter[float64](v, New[float64](v, Take2), 0))
		}
	}
	return iters
}

// TestConcurrentNextOnParallelMerge hammers one merged parallel iterator
// from many goroutines: Next must be linearizable — every row of the stream
// delivered exactly once, and each caller's own receive sequence
// non-decreasing (a subsequence of the globally ranked stream).
func TestConcurrentNextOnParallelMerge(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	inputs := randomInputs(r, 4, 24, 3)
	g := buildGraph(t, dioid.Tropical{}, inputs)
	ref := drain(New[float64](g, Batch), 1<<30)
	if len(ref) == 0 {
		t.Skip("empty instance")
	}
	const consumers = 8
	m := NewParallelMerge[float64](dioid.Tropical{}, shardIters(g, 4))
	defer m.Close()
	var wg sync.WaitGroup
	got := make([][]Row[float64], consumers)
	for c := 0; c < consumers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				row, ok := m.Next()
				if !ok {
					return
				}
				got[c] = append(got[c], row)
			}
		}()
	}
	wg.Wait()
	var all []float64
	for c := range got {
		for i, row := range got[c] {
			if i > 0 && row.Weight < got[c][i-1].Weight {
				t.Fatalf("consumer %d: weight %v after %v — per-caller sequence must be non-decreasing", c, row.Weight, got[c][i-1].Weight)
			}
			all = append(all, row.Weight)
		}
	}
	if len(all) != len(ref) {
		t.Fatalf("consumers received %d rows, want %d", len(all), len(ref))
	}
	sort.Float64s(all)
	for i := range ref {
		if all[i] != ref[i].Weight {
			t.Fatalf("rank %d: merged multiset has %v, Batch reference %v", i, all[i], ref[i].Weight)
		}
	}
}

// TestParallelMergeCloseReleasesProducers: closing an abandoned merge midway
// must terminate the shard producers (their channels close) and make further
// Next calls return false.
func TestParallelMergeCloseReleasesProducers(t *testing.T) {
	r := rand.New(rand.NewSource(304))
	inputs := randomInputs(r, 4, 30, 2) // dense: plenty of rows per shard
	iters := shardIters(buildGraph(t, dioid.Tropical{}, inputs), 4)
	if len(iters) == 0 {
		t.Skip("empty instance")
	}
	m := NewParallelMerge[float64](dioid.Tropical{}, iters)
	if _, ok := m.Next(); !ok {
		t.Skip("no rows")
	}
	m.Close()
	m.Close() // idempotent
	if _, ok := m.Next(); ok {
		t.Fatal("Next returned a row after Close")
	}
	// The producers must wind down: their channels close once the stop
	// signal is observed, which the race job would flag as a leak via
	// never-finishing goroutines if broken.
	for _, src := range m.sources {
		for range src.ch {
		}
	}
}

// TestParallelEnumeratorsOverSharedGraph runs enumerators in goroutines over
// one shared (read-only) graph under the race detector's eye.
func TestParallelEnumeratorsOverSharedGraph(t *testing.T) {
	r := rand.New(rand.NewSource(302))
	inputs := randomInputs(r, 3, 15, 3)
	g := buildGraph(t, dioid.Tropical{}, inputs)
	want := drain(New[float64](g, Batch), 1<<30)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for _, alg := range []Algorithm{Take2, Lazy, Eager, All, Recursive} {
		alg := alg
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := drain(New[float64](g, alg), 1<<30)
			if len(got) != len(want) {
				errs <- alg.String() + ": wrong count"
				return
			}
			for i := range got {
				if got[i].Weight != want[i].Weight {
					errs <- alg.String() + ": wrong order"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
