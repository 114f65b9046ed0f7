package relation

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func filterTestRel(t *testing.T, n int) *Relation {
	t.Helper()
	dict := NewDictionary()
	rel, err := NewTyped("F", dict, []string{"a", "b", "f"},
		[]Type{TypeInt64, TypeInt64, TypeFloat64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		a := int64(rng.Intn(100))
		b := int64(rng.Intn(100))
		if err := addLogical(rel, float64(i), a, b, float64(rng.Intn(100))/4); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// naiveScan is the oracle: a full scan with MatchRow.
func naiveScan(r *Relation, preds []ScanPred) []int {
	ids := []int{}
	for i := 0; i < r.Size(); i++ {
		if r.MatchRow(i, preds) {
			ids = append(ids, i)
		}
	}
	return ids
}

// TestFilterScan checks every operator against the naive full-scan oracle
// and pins the ascending-id contract, on both the full-scan path (equality
// predicates) and the sorted-permutation range path (ordered predicates).
func TestFilterScan(t *testing.T) {
	rel := filterTestRel(t, 500)
	cases := [][]ScanPred{
		{{Col: 0, Op: CmpEq, Code: 42}},
		{{Col: 0, Op: CmpNe, Code: 42}},
		{{Col: 0, Op: CmpLt, Code: 10}},
		{{Col: 0, Op: CmpLe, Code: 10}},
		{{Col: 0, Op: CmpGt, Code: 90}},
		{{Col: 0, Op: CmpGe, Code: 90}},
		{{Col: 0, Op: CmpColEq, Col2: 1}},
		{{Col: 2, Op: CmpLt, F: 5, Float: true}},
		{{Col: 2, Op: CmpGe, F: 20.25, Float: true}},
		{{Col: 0, Op: CmpLt, Code: 50}, {Col: 1, Op: CmpGe, Code: 50}},
		{{Col: 2, Op: CmpLe, F: 12.5, Float: true}, {Col: 0, Op: CmpColEq, Col2: 1}},
		{{Col: 0, Op: CmpLt, Code: -1}}, // empty result
		{{Col: 0, Op: CmpGe, Code: 0}},  // full result
	}
	for _, preds := range cases {
		got := rel.FilterScan(preds)
		want := naiveScan(rel, preds)
		if got == nil || !reflect.DeepEqual(got, want) {
			t.Errorf("FilterScan(%s) = %v, want %v", PredSig(preds), got, want)
		}
		if !sort.IntsAreSorted(got) {
			t.Errorf("FilterScan(%s) ids not ascending", PredSig(preds))
		}
	}
	if rel.FilterScan(nil) != nil {
		t.Error("FilterScan(nil) must return nil (unfiltered)")
	}
}

// TestFilterScanMemo pins memoization under the canonical signature:
// predicate order must not split the memo, and mutation must invalidate it.
func TestFilterScanMemo(t *testing.T) {
	rel := filterTestRel(t, 100)
	p1 := ScanPred{Col: 0, Op: CmpLt, Code: 50}
	p2 := ScanPred{Col: 1, Op: CmpGe, Code: 10}
	a := rel.FilterScan([]ScanPred{p1, p2})
	b := rel.FilterScan([]ScanPred{p2, p1})
	if len(a) == 0 || &a[0] != &b[0] {
		t.Error("reordered predicates missed the memo")
	}
	rel.Add(1, 1, 1, 0)
	c := rel.FilterScan([]ScanPred{p1, p2})
	if &a[0] == &c[0] {
		t.Error("mutation did not invalidate the filter-scan memo")
	}
	if want := naiveScan(rel, []ScanPred{p1, p2}); !reflect.DeepEqual(c, want) {
		t.Errorf("post-mutation scan = %v, want %v", c, want)
	}
}

// TestSortedPerm pins the permutation order: ascending by value, row id on
// ties, one memoized permutation per column serving every range predicate.
func TestSortedPerm(t *testing.T) {
	rel := filterTestRel(t, 200)
	perm := rel.SortedPerm(0, false)
	if len(perm) != rel.Size() {
		t.Fatalf("perm length %d, want %d", len(perm), rel.Size())
	}
	col := rel.Col(0)
	for k := 1; k < len(perm); k++ {
		if col[perm[k-1]] > col[perm[k]] {
			t.Fatalf("perm not sorted at %d", k)
		}
		if col[perm[k-1]] == col[perm[k]] && perm[k-1] > perm[k] {
			t.Fatalf("perm ties not in row order at %d", k)
		}
	}
	if &perm[0] != &rel.SortedPerm(0, false)[0] {
		t.Error("SortedPerm missed the memo")
	}
	fperm := rel.SortedPerm(2, true)
	for k := 1; k < len(fperm); k++ {
		fa, _ := rel.Dict.DecodeFloat(rel.At(fperm[k-1], 2))
		fb, _ := rel.Dict.DecodeFloat(rel.At(fperm[k], 2))
		if fa > fb {
			t.Fatalf("float perm not sorted at %d", k)
		}
	}
}

// TestFilteredGroupIndex pins the filtered index against a group-by over the
// naive scan: original row ids, first-seen-in-row-order windows.
func TestFilteredGroupIndex(t *testing.T) {
	rel := filterTestRel(t, 300)
	preds := []ScanPred{{Col: 0, Op: CmpLt, Code: 30}}
	for _, cols := range [][]int{{1}, {0, 1}} {
		idx := rel.FilteredGroupIndex(cols, preds)
		seen := map[int32]bool{}
		for g := range int32(idx.Len()) {
			rows := idx.Window(g)
			if len(rows) == 0 || !slices.IsSorted(rows) {
				t.Fatalf("window %d rows empty or not ascending: %v", g, rows)
			}
			for _, i := range rows {
				if !rel.MatchRow(int(i), preds) {
					t.Fatalf("window %d contains non-matching row %d", g, i)
				}
				seen[i] = true
			}
		}
		want := naiveScan(rel, preds)
		if len(seen) != len(want) {
			t.Fatalf("index over cols %v covers %d rows, want %d", cols, len(seen), len(want))
		}
		sameGrouping(t, rel, cols, want, idx)
		if idx2 := rel.FilteredGroupIndex(cols, preds); idx2 != idx {
			t.Error("FilteredGroupIndex missed the memo")
		}
	}
	if rel.FilteredGroupIndex([]int{0}, nil) != rel.GroupIndex([]int{0}) {
		t.Error("FilteredGroupIndex(nil preds) must be GroupIndex")
	}
}

// TestIndexEntries pins the gauge classification: filtered structures carry
// the "flt|" marker, plain ones don't, and mutation zeroes both counts.
func TestIndexEntries(t *testing.T) {
	rel := filterTestRel(t, 50)
	if tot, flt := rel.IndexEntries(); tot != 0 || flt != 0 {
		t.Fatalf("fresh relation reports %d/%d entries", tot, flt)
	}
	rel.GroupIndex([]int{0})
	preds := []ScanPred{{Col: 0, Op: CmpGe, Code: 25}}
	rel.FilterScan(preds) // sorted perm + scan result
	rel.FilteredGroupIndex([]int{1}, preds)
	tot, flt := rel.IndexEntries()
	if tot != 4 || flt != 3 {
		t.Fatalf("IndexEntries = %d/%d, want 4 total / 3 filtered", tot, flt)
	}
	rel.Add(1, 1, 1, 0)
	if tot, flt := rel.IndexEntries(); tot != 0 || flt != 0 {
		t.Fatalf("post-mutation IndexEntries = %d/%d, want 0/0", tot, flt)
	}
}

func TestPredSig(t *testing.T) {
	p1 := ScanPred{Col: 0, Op: CmpLt, Code: 50}
	p2 := ScanPred{Col: 2, Op: CmpGe, F: 1.5, Float: true}
	if PredSig(nil) != "" {
		t.Error("PredSig(nil) must be empty")
	}
	a, b := PredSig([]ScanPred{p1, p2}), PredSig([]ScanPred{p2, p1})
	if a != b {
		t.Errorf("PredSig order-sensitive: %q vs %q", a, b)
	}
	if len(a) < 4 || a[:4] != "flt|" {
		t.Errorf("PredSig %q does not carry the flt| marker", a)
	}
}
