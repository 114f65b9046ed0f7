package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"anyk/internal/dataset"
	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
	"anyk/internal/relation"
)

// recTreeInputs builds a random join tree of nstages stages for d. Parents
// are drawn from the earlier stages and the root, so stages get up to three
// unpruned branches; a quarter of the leaves are pruned; few rows over tiny
// domains with weights in 0..9 leave single-member groups, empty groups and
// many ties.
func recTreeInputs[W any](r *rand.Rand, d dioid.Dioid[W], nstages int) []dpgraph.StageInput[W] {
	parents := make([]int, nstages)
	leaf := make([]bool, nstages)
	for i := range parents {
		parents[i] = r.Intn(i+1) - 1
		leaf[i] = true
		if p := parents[i]; p >= 0 {
			leaf[p] = false
		}
	}
	dom := 1 + r.Intn(3)
	inputs := make([]dpgraph.StageInput[W], nstages)
	for i, p := range parents {
		vars := []string{fmt.Sprintf("u%d", i), fmt.Sprintf("v%d", i)}
		if p >= 0 {
			vars[0] = fmt.Sprintf("v%d", p)
		}
		in := dpgraph.StageInput[W]{Name: fmt.Sprintf("S%d", i), Vars: vars, Parent: p,
			Prune: i > 0 && leaf[i] && r.Intn(4) == 0}
		for k := r.Intn(6); k >= 0; k-- {
			in.Rows = append(in.Rows, []dpgraph.Value{int64(r.Intn(dom)), int64(r.Intn(dom + 1))})
			in.Weights = append(in.Weights, d.Lift(float64(r.Intn(10)), i, int64(len(in.Weights))))
		}
		inputs[i] = in
	}
	return inputs
}

// recShapes records which memo shapes a graph exercises.
type recShapes struct{ branches2, branches3, pruned, single, empty bool }

func (s *recShapes) add(g *dpgraph.Graph[float64]) {
	if g.Empty() {
		return
	}
	for _, st := range g.Stages {
		s.branches2 = s.branches2 || len(st.UnprunedBranches) == 2
		s.branches3 = s.branches3 || len(st.UnprunedBranches) == 3
		s.pruned = s.pruned || st.Pruned
		for _, grp := range st.Groups {
			s.single = s.single || len(grp.Members) == 1
			s.empty = s.empty || len(grp.Members) == 0
		}
	}
}

// diffRec drains recEnum and refRec over one graph and requires the same
// states and weight at every rank, the same end of stream, and equal Stats.
func diffRec[W any](t *testing.T, label string, g *dpgraph.Graph[W], limit int) {
	t.Helper()
	got, ref := newRec(g), newRefRec(g)
	for rank := 0; rank < limit; rank++ {
		gs, gok := got.Next()
		rs, rok := ref.Next()
		if gok != rok {
			t.Fatalf("%s: rank %d: stream ended %v, reference %v", label, rank, !gok, !rok)
		}
		if !gok {
			break
		}
		if !slices.Equal(gs.States, rs.States) || !reflect.DeepEqual(gs.Weight, rs.Weight) {
			t.Fatalf("%s: rank %d: %v %v, reference %v %v", label, rank, gs.States, gs.Weight, rs.States, rs.Weight)
		}
	}
	if gst, rst := got.Stats(), ref.Stats(); gst != rst {
		t.Fatalf("%s: Stats %+v, reference %+v", label, gst, rst)
	}
}

// TestRecMatchesRef pins the flat-memory anyK-rec to the pointer-based
// enumerator it replaced, under a numeric, a descending and a vector dioid.
func TestRecMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var seen recShapes
	for trial := 0; trial < 300; trial++ {
		nstages := 2 + r.Intn(6)
		seed := r.Int63()
		label := fmt.Sprintf("trial %d", trial)
		for _, d := range []dioid.Dioid[float64]{dioid.Tropical{}, dioid.MaxPlus{}} {
			inputs := recTreeInputs(rand.New(rand.NewSource(seed)), d, nstages)
			g := buildGraph(t, d, inputs)
			seen.add(g)
			diffRec(t, fmt.Sprintf("%s %T", label, d), g, 3000)
		}
		lex := dioid.NewLex(nstages)
		g, err := dpgraph.Build[dioid.Vec](lex, recTreeInputs(rand.New(rand.NewSource(seed)), lex, nstages), nil)
		if err != nil {
			t.Fatal(err)
		}
		g.BottomUp()
		diffRec(t, label+" Lex", g, 3000)
	}
	if seen != (recShapes{true, true, true, true, true}) {
		t.Fatalf("random trees missed a memo shape: %+v", seen)
	}
}

func TestSegvec(t *testing.T) {
	var v segvec[int32]
	var ptrs []*int32
	for i := int32(0); i < 1000; i++ {
		v.push(i)
		ptrs = append(ptrs, v.at(i))
	}
	if v.len() != 1000 {
		t.Fatalf("len %d, want 1000", v.len())
	}
	for i, p := range ptrs {
		if *p != int32(i) || v.at(int32(i)) != p {
			t.Fatalf("element %d moved or changed: %d", i, *p)
		}
	}
}

// FuzzRecMatchesRef is TestRecMatchesRef on trees the fuzzer picks: a seed
// and a stage count fix a random tree (recTreeInputs), and anyK-rec must
// match refRec on it under Tropical and Lex.
func FuzzRecMatchesRef(f *testing.F) {
	f.Add(int64(42), uint8(1))
	f.Add(int64(7), uint8(3))
	f.Add(int64(2212), uint8(5))
	f.Add(int64(-1), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, stages uint8) {
		nstages := 1 + int(stages)%8
		var trop dioid.Tropical
		g := buildGraph(t, trop, recTreeInputs(rand.New(rand.NewSource(seed)), trop, nstages))
		diffRec(t, "Tropical", g, 3000)
		lex := dioid.NewLex(nstages)
		lg, err := dpgraph.Build[dioid.Vec](lex, recTreeInputs(rand.New(rand.NewSource(seed)), lex, nstages), nil)
		if err != nil {
			t.Fatal(err)
		}
		lg.BottomUp()
		diffRec(t, "Lex", lg, 3000)
	})
}

// pathInputs lowers the ℓ-path R1(x1,x2), …, Rℓ(xℓ,xℓ+1) over db's binary
// relations by hand, borrowing their columns and weights.
func pathInputs(db *relation.DB, l int) []dpgraph.StageInput[float64] {
	inputs := make([]dpgraph.StageInput[float64], l)
	for i := range inputs {
		rel := db.Relation(fmt.Sprintf("R%d", i+1))
		inputs[i] = dpgraph.StageInput[float64]{
			Name:    rel.Name,
			Vars:    []string{fmt.Sprintf("x%d", i+1), fmt.Sprintf("x%d", i+2)},
			Cols:    [][]dpgraph.Value{rel.Col(0), rel.Col(1)},
			Weights: rel.Weights,
			Parent:  i - 1,
		}
	}
	return inputs
}

// memoEntries counts the suffix and combination entries e's memo holds, as
// stored: a keep-last list counts one.
func memoEntries[W any](e *recEnum[W]) int {
	n := 0
	for _, gs := range e.groups {
		for i := range gs {
			n += int(gs[i].sols.len())
		}
	}
	for _, ms := range e.stages {
		for i := range ms.states {
			n += int(ms.states[i].sols.len())
		}
	}
	return n
}

// TestRecMemoCensus counts the memo a full anyK-rec drain keeps. On a path
// the root's child group is read only at rank k, so it keeps one entry, not
// one per result, and the memo kept after draining path4 over
// Uniform(4, 1000) (domain 100) stays below 15 % of the results. Keeping the
// whole root list holds 1 125 906 entries for 1 013 048 results; keep-last
// holds 112 859. Stats still counts the logical list length.
func TestRecMemoCensus(t *testing.T) {
	g := buildGraph(t, dioid.Tropical{}, pathInputs(dataset.Uniform(4, 1000, 42), 4))
	e := newRec(g)
	results := 0
	for _, ok := e.Next(); ok; _, ok = e.Next() {
		results++
	}
	kept := memoEntries(e)
	t.Logf("%d memo entries kept for %d results; Stats.MaxQueueSize %d", kept, results, e.Stats().MaxQueueSize)
	if results < 1_000_000 {
		t.Fatalf("drain produced %d results, want the ~1e6 of the benchmark instance", results)
	}
	if kept*100 >= 15*results {
		t.Fatalf("%d memo entries kept for %d results, want below 15 %%", kept, results)
	}
	if logical := e.Stats().MaxQueueSize; logical < results {
		t.Fatalf("Stats.MaxQueueSize %d counts fewer entries than the %d ranks the root list revealed", logical, results)
	}
}

// TestRecRootListPanicsBelowLast: the root's keep-last list answers only its
// last rank; a read below it is a bug in the enumerator and must panic rather
// than return a stale suffix.
func TestRecRootListPanicsBelowLast(t *testing.T) {
	g := buildGraph(t, dioid.Tropical{}, pathInputs(dataset.Uniform(2, 20, 1), 2))
	e := newRec(g)
	for i := 0; i < 3; i++ {
		if _, ok := e.Next(); !ok {
			t.Fatalf("instance has %d results, want at least 3", i)
		}
	}
	root := g.Stages[0]
	b := root.UnprunedBranches[0]
	cs, gi := root.ChildStages[b], root.Link(0, b)
	if rg := &e.groups[cs][gi]; !rg.keepLast || rg.sols.len() != 1 || rg.len() != 3 {
		t.Fatalf("root list: keepLast %v, %d stored of %d, want keep-last with 1 of 3", rg.keepLast, rg.sols.len(), rg.len())
	}
	if _, ok := e.groupSol(cs, gi, 2); !ok {
		t.Fatal("the last rank of the root list is unreadable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading rank 1 of a keep-last list at rank 2 did not panic")
		}
	}()
	e.groupSol(cs, gi, 1)
}
