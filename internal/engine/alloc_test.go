package engine

import (
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
// serial fig10a drain, the workload behind the allocs_per_op series in
// BENCH_baseline.json. Take2's steady state is sub-1 alloc/Next (arena and
// slab refills amortize to ~1/256); Recursive's Lawler frontier copies one
// rank vector per multi-branch expansion, so its budget is higher but still
// pinned. Bounds carry slack over the measured means (≈0.02 and ≈1.1) to
// absorb scheduling noise, not regressions: the pre-columnar build sat at
// ≈3.1 for both and must not come back.
func TestSteadyStateAllocsPerNext(t *testing.T) {
	for _, tc := range []struct {
		alg    core.Algorithm
		budget float64
	}{
		{core.Take2, 1.0},
		{core.Recursive, 2.0},
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
