package core

import (
	"math/rand"
	"testing"

	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
)

// crossCheck builds the same random instance under dioid d and verifies that
// every any-k algorithm produces the same ranking as Batch (which sorts with
// the dioid's own order), with order-equivalent weights at every rank.
func crossCheck[W any](t *testing.T, d dioid.Dioid[W], inputs []dpgraph.StageInput[float64], tag string) {
	t.Helper()
	lifted := make([]dpgraph.StageInput[W], len(inputs))
	for i, in := range inputs {
		lifted[i] = dpgraph.StageInput[W]{
			Name: in.Name, Vars: in.Vars, Rows: in.Rows, Parent: in.Parent,
			Weights: make([]W, len(in.Rows)),
		}
		for j := range in.Rows {
			lifted[i].Weights[j] = d.Lift(in.Weights[j], i, int64(j))
		}
	}
	g, err := dpgraph.Build[W](d, lifted, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.BottomUp()
	var ref []Solution[W]
	be := New[W](g, Batch)
	for {
		s, ok := be.Next()
		if !ok {
			break
		}
		s.States = append([]int32(nil), s.States...)
		ref = append(ref, s)
	}
	for _, alg := range []Algorithm{Take2, Lazy, Eager, All, Recursive} {
		e := New[W](g, alg)
		for i := range ref {
			s, ok := e.Next()
			if !ok {
				t.Fatalf("%s/%v: exhausted at %d of %d", tag, alg, i, len(ref))
			}
			if !dioid.Eq[W](d, s.Weight, ref[i].Weight) {
				t.Fatalf("%s/%v rank %d: %v want %v", tag, alg, i, s.Weight, ref[i].Weight)
			}
		}
		if _, ok := e.Next(); ok {
			t.Fatalf("%s/%v: produced extra results", tag, alg)
		}
	}
}

// TestAllAlgorithmsUnderAllDioids cross-checks the rankings under every
// shipped dioid, including the inverse-free ones and the structured weights.
func TestAllAlgorithmsUnderAllDioids(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	for trial := 0; trial < 8; trial++ {
		nstages := 2 + r.Intn(3)
		inputs := randomInputs(r, nstages, 1+r.Intn(8), 1+r.Intn(3))
		// integer-valued positive weights so all dioids are exact
		for i := range inputs {
			for j := range inputs[i].Weights {
				inputs[i].Weights[j] = float64(1 + r.Intn(12))
			}
		}
		crossCheck[float64](t, dioid.Tropical{}, inputs, "tropical")
		crossCheck[float64](t, dioid.MaxPlus{}, inputs, "maxplus")
		crossCheck[float64](t, dioid.MaxTimes{}, inputs, "maxtimes")
		crossCheck[float64](t, dioid.MinMax{}, inputs, "minmax")
		crossCheck[float64](t, asMonoid[float64](dioid.Tropical{}), inputs, "monoid-tropical")
		crossCheck[dioid.Vec](t, dioid.NewLex(nstages), inputs, "lex")
		crossCheck[dioid.TieWeight[float64]](t, dioid.NewGroupTie[float64](dioid.Tropical{}, nstages), inputs, "tie")
		crossCheck[dioid.TieWeight[float64]](t, dioid.NewTie[float64](dioid.Tropical{}, nstages), inputs, "tie-monoid")
	}
}
