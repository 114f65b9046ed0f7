package engine

import (
	"math"
	"runtime"
	"testing"

	"anyk/internal/core"
	"anyk/internal/dataset"
	"anyk/internal/dioid"
	"anyk/internal/query"
)

// fig10aIter opens a serial iterator over the fig10a workload (4-path,
// uniform) and pulls warmup rows so the choice-set structures, candidate
// queue, and assembly arenas reach steady state before measuring.
func fig10aIter(t *testing.T, alg core.Algorithm) *Iterator[float64] {
	t.Helper()
	db := dataset.Uniform(4, 300, 1)
	q := query.PathQuery(4)
	it, err := Enumerate[float64](db, q, dioid.Tropical{}, alg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, ok := it.Next(); !ok {
			t.Fatalf("%v: instance exhausted during warmup at %d", alg, i)
		}
	}
	return it
}

// TestSteadyStateAllocsPerNext pins the per-result allocation budget of the
// serial fig10a drain in steady state; TestDrainAllocsPerRow below pins the
// whole drain. Both are sub-1 alloc/Next: Take2's arena and slab refills
// amortize to ~1/256, and Recursive's memo allocates per group, per state
// and per slab or segment growth, never per result. Bounds carry slack over
// the measured means (≈0.02 and 0) to absorb scheduling noise, not
// regressions: the pre-columnar build sat at ≈3.1 for both, and Recursive at
// ≈1.1 while each frontier push copied its rank vector.
func TestSteadyStateAllocsPerNext(t *testing.T) {
	for _, tc := range []struct {
		alg    core.Algorithm
		budget float64
	}{
		{core.Take2, 1.0},
		{core.Recursive, 0.5},
	} {
		it := fig10aIter(t, tc.alg)
		got := testing.AllocsPerRun(3000, func() {
			if _, ok := it.Next(); !ok {
				t.Fatalf("%v: exhausted mid-measurement", tc.alg)
			}
		})
		it.Close()
		if got > tc.budget {
			t.Errorf("%v: %.2f allocs per Next in steady state, budget %.1f", tc.alg, got, tc.budget)
		}
	}
}

// TestDrainAllocsPerRow pins what a whole serial fig10a session allocates
// per produced row, Enumerate through exhaustion. testing.AllocsPerRun
// rounds to whole objects per run, so the unit measured is the full drain,
// not one Next. Measured: Recursive 8 057 objects for 309 166 rows (0.026
// per row: group and state memos, rank-slab and suffix-segment growth);
// Take2 3 118 objects (0.010 per row, arena and slab refills). Budgets are
// about 2× those. Recursive sat at 348 393 objects (1.127 per row) while
// each frontier push copied its rank vector.
func TestDrainAllocsPerRow(t *testing.T) {
	db := dataset.Uniform(4, 300, 1)
	q := query.PathQuery(4)
	for _, tc := range []struct {
		alg    core.Algorithm
		budget float64
	}{
		{core.Recursive, 0.05},
		{core.Take2, 0.02},
	} {
		rows := 0
		objs := testing.AllocsPerRun(1, func() {
			it, err := Enumerate[float64](db, q, dioid.Tropical{}, tc.alg, Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			for rows = 0; ; rows++ {
				if _, ok := it.Next(); !ok {
					break
				}
			}
			it.Close()
		})
		if rows == 0 {
			t.Fatalf("%v: drain produced no rows", tc.alg)
		}
		if per := objs / float64(rows); per > tc.budget {
			t.Errorf("%v: drain allocates %.0f objects for %d rows (%.3f per row), budget %.2f",
				tc.alg, objs, rows, per, tc.budget)
		}
	}
}

// TestFilteredTopKAllocs pins a filtered session end to end: a 4-path top-1000
// with a "< 100" predicate on every atom (10 % selectivity, the filter1
// experiment's middle setting) over Uniform(4, 10000), no plan cache. The
// predicates resolve through filtered scans of the relations' memoized sorted
// permutations, which AllocsPerRun's warming call fills. The query has 503
// answers, so the session drains. Measured 497 objects; the budget of 650 is
// about 1.3× that, far below what copying the qualifying rows into selection
// relations would cost.
func TestFilteredTopKAllocs(t *testing.T) {
	const budget = 650
	db := dataset.Uniform(4, 10000, 1)
	atoms := query.PathQuery(4).Atoms
	for i := range atoms {
		atoms[i].Preds = []query.Pred{{Col: 0, Op: query.PredLt, Val: query.Term{Kind: query.TermInt, Int: 100}}}
	}
	q := query.NewCQ("path4f", nil, atoms...)
	rows := 0
	objs := testing.AllocsPerRun(1, func() {
		it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Take2, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for rows = 0; rows < 1000; rows++ {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		it.Close()
	})
	if rows == 0 {
		t.Fatal("filtered query produced no rows")
	}
	if objs > budget {
		t.Fatalf("filtered top-%d allocates %.0f objects, budget %d", rows, objs, budget)
	}
}

// warmEnumerateAllocs is what a whole Enumerate call opening a serial 4-path
// session over a warm cache allocates: the plan key, the plan and graph
// lookups, the enumerator and the row iterator. Per-plan work (the typed
// schema) must stay behind the plan lookup, and the key's allocations must
// not depend on the database's id or version.
const warmEnumerateAllocs = 52

func TestWarmEnumerateAllocs(t *testing.T) {
	db := dataset.Uniform(4, 300, 1)
	q := query.PathQuery(4)
	opt := Options{Parallelism: 1, Cache: NewCache(0)}
	open := func() {
		it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Take2, opt)
		if err != nil {
			t.Fatal(err)
		}
		it.Close()
	}
	open() // fill the cache
	if got := testing.AllocsPerRun(50, open); got != warmEnumerateAllocs {
		t.Fatalf("a warm serial Enumerate call allocates %v objects, want %d", got, warmEnumerateAllocs)
	}
}

// TestRowValsStableAcrossNext pins the aliasing contract of the assembly
// arena: a caller holding row N's Vals slice across later Next calls must
// keep seeing row N's values — rows are carved from the arena, never
// overwritten — including across arena-block boundaries (>256 rows).
func TestRowValsStableAcrossNext(t *testing.T) {
	db := dataset.Uniform(4, 100, 7)
	q := query.PathQuery(4)
	it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Take2)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	type held struct {
		vals []int64 // the live slice handed out by Next
		copy []int64 // snapshot taken at receive time
	}
	var rows []held
	for i := 0; i < 600; i++ {
		r, ok := it.Next()
		if !ok {
			break
		}
		rows = append(rows, held{vals: r.Vals, copy: append([]int64(nil), r.Vals...)})
	}
	if len(rows) < 300 {
		t.Fatalf("instance too small to cross an arena block: %d rows", len(rows))
	}
	for i, h := range rows {
		for j := range h.copy {
			if h.vals[j] != h.copy[j] {
				t.Fatalf("row %d col %d mutated after later Next calls: %d, was %d",
					i, j, h.vals[j], h.copy[j])
			}
		}
	}
}

// loweredBytes is what prepare — route choice and lowering, stopping short
// of the graph build and its own O(n) arrays — allocates for an uncached
// path4 over Uniform(4, n) under d: the least of three runs, so that a
// stray background allocation cannot inflate it.
func loweredBytes[W any](t *testing.T, d dioid.Dioid[W], n int) int64 {
	t.Helper()
	db := dataset.Uniform(4, n, 1)
	q := query.PathQuery(4)
	best := int64(math.MaxInt64)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, _, _, err := prepare[W](db, q, d, Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		best = min(best, int64(ms.TotalAlloc-before))
	}
	return best
}

// TestLowerAllocsIndependentOfN: a stage of every row borrows the relation's
// columns, and under a dioid whose Lift is the identity on float64 its
// weights too, so lowering path4 allocates the same few bytes at n = 1 000
// and n = 100 000 under Tropical. Counting (float64, but Lift maps every
// weight to 1) and Lex (vector weights) still lift into arrays of their own,
// so their lowering grows by at least 8 B per added row and atom: the
// identity list, not the weight type, is what decides.
func TestLowerAllocsIndependentOfN(t *testing.T) {
	const small, large, slack = 1_000, 100_000, 64 << 10
	grow := func(f func(n int) int64) int64 { return f(large) - f(small) }
	if d := grow(func(n int) int64 { return loweredBytes[float64](t, dioid.Tropical{}, n) }); d >= slack {
		t.Errorf("Tropical: lowering at n = %d allocates %d B more than at n = %d, want < %d", large, d, small, slack)
	}
	floor := int64(4 * (large - small) * 8)
	if d := grow(func(n int) int64 { return loweredBytes[float64](t, dioid.Counting{}, n) }); d < floor {
		t.Errorf("Counting: lowering grew by %d B from n = %d to %d, want ≥ %d (its weights are lifted)", d, small, large, floor)
	}
	if d := grow(func(n int) int64 { return loweredBytes[dioid.Vec](t, dioid.NewLex(4), n) }); d < floor {
		t.Errorf("Lex: lowering grew by %d B from n = %d to %d, want ≥ %d (its weights are lifted)", d, small, large, floor)
	}
}
