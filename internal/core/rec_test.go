package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
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
