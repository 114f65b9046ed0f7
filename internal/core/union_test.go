package core

import (
	"testing"

	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
)

type sliceIter struct {
	rows []Row[float64]
	i    int
}

func (s *sliceIter) Next() (Row[float64], bool) {
	if s.i >= len(s.rows) {
		return Row[float64]{}, false
	}
	r := s.rows[s.i]
	s.i++
	return r, true
}

func TestUnionMergesInRankOrder(t *testing.T) {
	d := dioid.Tropical{}
	// The sources tag their own rows (as graph iterators tag theirs with the
	// decomposition tree); the union must pass the tags through, not replace
	// them with the sources' positions.
	a := &sliceIter{rows: []Row[float64]{{Vals: []int64{1}, Weight: 1, Tree: 5}, {Vals: []int64{4}, Weight: 4, Tree: 5}}}
	b := &sliceIter{rows: []Row[float64]{{Vals: []int64{2}, Weight: 2, Tree: 2}, {Vals: []int64{3}, Weight: 3, Tree: 2}}}
	u := NewUnion[float64](d, a, b)
	var got []float64
	var trees []int
	for {
		r, ok := u.Next()
		if !ok {
			break
		}
		got = append(got, r.Weight)
		trees = append(trees, r.Tree)
	}
	want := []float64{1, 2, 3, 4}
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: %v", got)
		}
	}
	if trees[0] != 5 || trees[1] != 2 || trees[2] != 2 || trees[3] != 5 {
		t.Fatalf("tree tags: %v", trees)
	}
}

func TestDedupDropsConsecutive(t *testing.T) {
	in := &sliceIter{rows: []Row[float64]{
		{Vals: []int64{1, 1}, Weight: 1},
		{Vals: []int64{1, 1}, Weight: 1},
		{Vals: []int64{1, 1}, Weight: 1},
		{Vals: []int64{2, 2}, Weight: 2},
		{Vals: []int64{1, 1}, Weight: 3}, // same vals, not consecutive: kept
	}}
	dd := NewDedup[float64](in)
	var got []float64
	for {
		r, ok := dd.Next()
		if !ok {
			break
		}
		got = append(got, r.Weight)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("dedup result: %v", got)
	}
}

func TestGraphIterAssembles(t *testing.T) {
	d := dioid.Tropical{}
	g, err := dpgraph.Build[float64](d, []dpgraph.StageInput[float64]{
		{Name: "R", Vars: []string{"x", "y"}, Parent: -1,
			Rows: [][]dpgraph.Value{{1, 2}, {3, 4}}, Weights: []float64{5, 1}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.BottomUp()
	it := NewGraphIter[float64](g, New[float64](g, Take2), 7)
	r1, ok := it.Next()
	if !ok || r1.Weight != 1 || r1.Vals[0] != 3 || r1.Vals[1] != 4 || r1.Tree != 7 {
		t.Fatalf("first row: %+v", r1)
	}
	r2, _ := it.Next()
	if r2.Weight != 5 || r2.Vals[0] != 1 {
		t.Fatalf("second row: %+v", r2)
	}
	if _, ok := it.Next(); ok {
		t.Fatal("extra row")
	}
}
