package core

import (
	"fmt"
	"math/rand"
	"testing"

	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
)

// TestMemStatsMatchComplexityTable validates the MEM(k) column of Fig. 5:
// on a path instance with large choice sets, All must insert far more
// candidates per produced result than Take2/Lazy/Eager, and the strict
// variants must stay within O(ℓ) insertions per result.
func TestMemStatsMatchComplexityTable(t *testing.T) {
	r := rand.New(rand.NewSource(201))
	// 3-path over a single join value: every choice set has n members.
	n := 200
	var inputs []dpgraph.StageInput[float64]
	for i := 0; i < 3; i++ {
		in := dpgraph.StageInput[float64]{
			Name:   fmt.Sprintf("R%d", i+1),
			Vars:   []string{fmt.Sprintf("x%d", i+1), fmt.Sprintf("x%d", i+2)},
			Parent: i - 1,
		}
		for k := 0; k < n; k++ {
			in.Rows = append(in.Rows, []dpgraph.Value{0, 0})
			in.Weights = append(in.Weights, float64(r.Intn(1000)))
		}
		inputs = append(inputs, in)
	}
	g, err := dpgraph.Build[float64](dioid.Tropical{}, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.BottomUp()
	const k = 500
	stats := map[Algorithm]Stats{}
	for _, alg := range []Algorithm{Take2, Lazy, Eager, All, Recursive} {
		e := New[float64](g, alg)
		got := drain(e, k)
		if len(got) != k {
			t.Fatalf("%v produced %d", alg, len(got))
		}
		sr, ok := e.(StatsReporter)
		if !ok {
			t.Fatalf("%v does not report stats", alg)
		}
		stats[alg] = sr.Stats()
	}
	// All inserts Θ(n) candidates per result; strict variants Θ(ℓ).
	if stats[All].CandidatesInserted < 10*stats[Take2].CandidatesInserted {
		t.Fatalf("All (%d) should insert far more candidates than Take2 (%d)",
			stats[All].CandidatesInserted, stats[Take2].CandidatesInserted)
	}
	for _, alg := range []Algorithm{Take2, Lazy, Eager} {
		per := float64(stats[alg].CandidatesInserted) / k
		if per > 8 { // ℓ=3 stages, ≤2 candidates each, plus slack
			t.Fatalf("%v inserts %.1f candidates per result; expected O(ℓ)", alg, per)
		}
	}
	if stats[Recursive].CandidatesInserted == 0 || stats[Recursive].MaxQueueSize == 0 {
		t.Fatal("Recursive stats empty")
	}
}

// TestStatsZeroBeforeEnumeration ensures counters start clean.
func TestStatsZeroBeforeEnumeration(t *testing.T) {
	g, err := dpgraph.Build[float64](dioid.Tropical{}, []dpgraph.StageInput[float64]{
		{Name: "A", Vars: []string{"x"}, Parent: -1,
			Rows: [][]dpgraph.Value{{1}}, Weights: []float64{1}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.BottomUp()
	e := newPart(g, Take2)
	if s := e.Stats(); s.CandidatesInserted != 0 {
		t.Fatalf("stats before enumeration: %+v", s)
	}
}

// TestStatsSurviveWrapping: every iterator layer that can sit between an
// enumerator and the caller — graph adapter, union, dedup, parallel
// merge — must pass MEM(k) counters through instead of erasing them.
func TestStatsSurviveWrapping(t *testing.T) {
	r := rand.New(rand.NewSource(203))
	build := func() *dpgraph.Graph[float64] {
		var inputs []dpgraph.StageInput[float64]
		for i := 0; i < 2; i++ {
			in := dpgraph.StageInput[float64]{
				Name: fmt.Sprintf("R%d", i+1),
				Vars: []string{fmt.Sprintf("x%d", i+1), fmt.Sprintf("x%d", i+2)}, Parent: i - 1,
			}
			for k := 0; k < 20; k++ {
				in.Rows = append(in.Rows, []dpgraph.Value{0, 0})
				in.Weights = append(in.Weights, float64(r.Intn(1000)))
			}
			inputs = append(inputs, in)
		}
		g, err := dpgraph.Build[float64](dioid.Tropical{}, inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.BottomUp()
		return g
	}

	// Serial stack: graphIter → union → dedup, read after 10 rows.
	g1, g2 := build(), build()
	it := NewDedup(NewUnion(dioid.Tropical{},
		NewGraphIter(g1, New[float64](g1, Take2), 0),
		NewGraphIter(g2, New[float64](g2, Take2), 1)))
	for range 10 {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	sr, ok := it.(StatsReporter)
	if !ok {
		t.Fatal("dedup(union) does not report stats")
	}
	if s := sr.Stats(); s.CandidatesInserted == 0 || s.MaxQueueSize == 0 {
		t.Fatalf("serial stack stats empty: %+v", s)
	}

	// Parallel merge: stats are exact once the stream is drained.
	g3, g4 := build(), build()
	m := NewParallelMerge(dioid.Tropical{}, []RowIter[float64]{
		NewGraphIter(g3, New[float64](g3, Take2), 0),
		NewGraphIter(g4, New[float64](g4, Take2), 1),
	})
	n := 0
	for {
		if _, ok := m.Next(); !ok {
			break
		}
		n++
	}
	if n != 2*20*20 {
		t.Fatalf("merged %d rows", n)
	}
	ms := m.Stats()
	if ms.CandidatesInserted == 0 || ms.MaxQueueSize == 0 {
		t.Fatalf("drained merge stats empty: %+v", ms)
	}
	// Each shard fully enumerated its own graph; the merged counters must be
	// the sum of two independent full drains.
	g5 := build() // same seed-independent shape; compare against one serial drain
	e := New[float64](g5, Take2)
	_ = drain(e, 1<<30)
	one := e.(StatsReporter).Stats()
	if ms.CandidatesInserted < one.CandidatesInserted {
		t.Fatalf("merge candidates %d < single shard %d", ms.CandidatesInserted, one.CandidatesInserted)
	}
}

// TestTheorem11SuffixReuse: on worst-case (Cartesian-product-like) instances
// the number of suffixes per stage shrinks geometrically, so Recursive's
// total priority-queue work for the FULL enumeration is O(|out|) — the heart
// of Theorem 11 (Recursive can beat Batch's sort). We assert the frontier
// insertions stay within a small constant of the output size.
func TestTheorem11SuffixReuse(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	// Cartesian product of 3 relations with 12 tuples each: |out| = 1728,
	// suffix counts 1728 + 144 + 12.
	var inputs []dpgraph.StageInput[float64]
	for i := 0; i < 3; i++ {
		in := dpgraph.StageInput[float64]{
			Name: fmt.Sprintf("R%d", i+1), Vars: []string{fmt.Sprintf("x%d", i+1)}, Parent: i - 1,
		}
		for k := 0; k < 12; k++ {
			in.Rows = append(in.Rows, []dpgraph.Value{int64(k)})
			in.Weights = append(in.Weights, float64(r.Intn(10000)))
		}
		inputs = append(inputs, in)
	}
	g, err := dpgraph.Build[float64](dioid.Tropical{}, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.BottomUp()
	e := New[float64](g, Recursive)
	out := drain(e, 1<<30)
	if len(out) != 12*12*12 {
		t.Fatalf("|out| = %d", len(out))
	}
	st := e.(StatsReporter).Stats()
	// total suffixes = 1728+144+12 = 1884; each is inserted O(1) times.
	if st.CandidatesInserted > 3*len(out) {
		t.Fatalf("Recursive did %d frontier insertions for %d results; suffix reuse broken",
			st.CandidatesInserted, len(out))
	}
}
