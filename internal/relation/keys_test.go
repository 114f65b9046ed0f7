package relation

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestKeyTable pins KeyTable's numbering and lookups on both of its paths,
// reusing one table throughout as Build does.
func TestKeyTable(t *testing.T) {
	var kt KeyTable
	group := func(name string, wantDense bool, wantGid []int32, cols ...[]Value) {
		t.Helper()
		n := 0
		if len(cols) > 0 {
			n = len(cols[0])
		}
		gid, ngroups := kt.Group(cols, n)
		if kt.dense != wantDense {
			t.Fatalf("%s: dense = %v, want %v", name, kt.dense, wantDense)
		}
		want := 0
		for i, g := range wantGid {
			if gid[i] != g {
				t.Fatalf("%s: gid = %v, want %v", name, gid, wantGid)
			}
			want = max(want, int(g)+1)
		}
		if ngroups != want {
			t.Fatalf("%s: %d groups, want %d", name, ngroups, want)
		}
	}
	lookup := func(name string, want int32, key ...Value) {
		t.Helper()
		pcols := make([][]Value, len(key))
		for c, v := range key {
			pcols[c] = []Value{-7, v}
		}
		if got := kt.Lookup(pcols, 1); got != want {
			t.Fatalf("%s: Lookup(%v) = %d, want %d", name, key, got, want)
		}
	}

	// Dense, one column: the range [5, 9] is direct-addressed.
	group("dense", true, []int32{0, 1, 0, 2}, []Value{5, 7, 5, 9})
	lookup("dense", 1, 7)
	lookup("dense", 2, 9)
	lookup("dense gap", -1, 6)
	lookup("dense below", -1, 4)
	lookup("dense above", -1, 10)
	lookup("dense far", -1, math.MinInt64)

	// Dense, two columns of span 1: a probe just outside one column's range
	// packs onto another key's offset unless the range check rejects it.
	group("dense 2", true, []int32{0, 1, 2, 0}, []Value{0, 1, 0, 0}, []Value{0, 0, 1, 0})
	lookup("dense 2", 1, 1, 0)
	lookup("dense 2", 2, 0, 1)
	lookup("dense 2 absent", -1, 1, 1)
	lookup("dense 2 second above", -1, 0, 2)
	lookup("dense 2 first above", -1, 2, 0)
	lookup("dense 2 below", -1, 0, -1)

	// Hashed, one column: the values span more than 4n + 1024 codes.
	group("hashed", false, []int32{0, 1, 0, 2}, []Value{0, 1 << 40, 0, -5})
	lookup("hashed", 1, 1<<40)
	lookup("hashed", 2, -5)
	lookup("hashed absent", -1, 1)
	lookup("hashed absent", -1, 1<<40+1)

	// Hashed, two columns: one wide column is enough.
	group("hashed 2", false, []int32{0, 1, 2, 1, 0},
		[]Value{math.MaxInt64, 3, 3, 3, math.MaxInt64}, []Value{1, math.MinInt64, 2, math.MinInt64, 1})
	lookup("hashed 2", 0, math.MaxInt64, 1)
	lookup("hashed 2", 1, 3, math.MinInt64)
	lookup("hashed 2", 2, 3, 2)
	lookup("hashed 2 absent", -1, 3, 1)
	lookup("hashed 2 absent", -1, math.MaxInt64, 2)

	// An empty key puts every row in one group, which every probe finds.
	gid, ngroups := kt.Group(nil, 3)
	if ngroups != 1 || gid[0] != 0 || gid[1] != 0 || gid[2] != 0 {
		t.Fatalf("empty key: gid %v, %d groups", gid, ngroups)
	}
	lookup("empty key", 0)

	// No rows: no groups, and every probe misses.
	for _, cols := range [][][]Value{nil, {{}}, {{}, {}}} {
		if _, ngroups := kt.Group(cols, 0); ngroups != 0 {
			t.Fatalf("no rows over %d columns: %d groups", len(cols), ngroups)
		}
		lookup("no rows", -1, make([]Value, len(cols))...)
	}

	// The table is reusable after all of that.
	group("dense again", true, []int32{0, 0, 1}, []Value{2, 2, 3})
	lookup("dense again", 1, 3)
	lookup("dense again", -1, 9)
}

// TestGroupIndexConcurrentFind shares one memoized grouping between eight
// goroutines that each Find the key of every row: the window found must
// hold that row. Run under -race it also shows Find writes nothing.
func TestGroupIndexConcurrentFind(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := New("R", "a", "b", "c")
	for range 5000 {
		r.Add(0, int64(rng.Intn(60)), int64(rng.Intn(8)), int64(rng.Int63()>>rng.Intn(4)))
	}
	for _, cols := range [][]int{{0}, {0, 1}, {2}, {1, 2}} {
		x := r.GroupIndex(cols)
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				key := make([]Value, len(cols))
				for row := range int32(r.Size()) {
					r.ProjectInto(key, int(row), cols)
					w := x.Window(x.Find(key...))
					k := 0
					for k < len(w) && w[k] < row {
						k++
					}
					if k == len(w) || w[k] != row {
						errs <- "row not in the window found for its key"
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("cols %v: %s", cols, e)
		}
		key := r.ProjectInto(make([]Value, len(cols)), 17, cols)
		if allocs := testing.AllocsPerRun(100, func() { x.Find(key...) }); allocs != 0 {
			t.Fatalf("cols %v: Find allocates %.1f objects", cols, allocs)
		}
	}
}

// TestGroupIndexAllocs pins GroupIndex's and FilteredGroupIndex's
// allocations as independent of the row count: the same number of objects
// at n = 1 000 and n = 50 000, on the direct-addressed and the hashed path,
// for one and two key columns. The filter scan is memoized apart and kept
// warm, so only the grouping is measured.
func TestGroupIndexAllocs(t *testing.T) {
	preds := []ScanPred{{Col: 1, Op: CmpLt, Code: 50}}
	allocs := func(n int, wide bool, cols []int, preds []ScanPred) float64 {
		rng := rand.New(rand.NewSource(int64(n)))
		r := New("R", "a", "b")
		for range n {
			a := int64(rng.Intn(n/10 + 1))
			if wide {
				a = rng.Int63()
			}
			r.Add(0, a, int64(rng.Intn(100)))
		}
		r.FilterScan(preds)
		return testing.AllocsPerRun(5, func() {
			r.memoMu.Lock()
			for k := range r.memo {
				if strings.HasPrefix(k, "groupidx") {
					delete(r.memo, k)
				}
			}
			r.memoMu.Unlock()
			r.FilteredGroupIndex(cols, preds)
		})
	}
	for _, wide := range []bool{false, true} {
		for _, cols := range [][]int{{0}, {0, 1}} {
			for _, p := range [][]ScanPred{nil, preds} {
				small, large := allocs(1000, wide, cols, p), allocs(50000, wide, cols, p)
				if small != large {
					t.Errorf("wide=%v cols=%v filtered=%v: %.0f objects at n=1000, %.0f at n=50000", wide, cols, p != nil, small, large)
				}
			}
		}
	}
}

// TestFindWideKey covers keys wider than findCols, which Find copies.
func TestFindWideKey(t *testing.T) {
	attrs := make([]string, findCols+2)
	for c := range attrs {
		attrs[c] = string(rune('a' + c))
	}
	r := New("W", attrs...)
	cols := make([]int, len(attrs))
	row := make([]Value, len(attrs))
	for i := range 30 {
		for c := range row {
			cols[c] = c
			row[c] = Value(i % (c + 2))
		}
		r.Add(0, row...)
	}
	sameGrouping(t, r, cols, nil, r.GroupIndex(cols))
}
