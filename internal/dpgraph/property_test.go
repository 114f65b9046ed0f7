package dpgraph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"anyk/internal/dioid"
)

// randomTreeInputs builds a random tree of stages over small domains.
func randomTreeInputs(r *rand.Rand, nstages, rows, dom int) []StageInput[float64] {
	inputs := make([]StageInput[float64], nstages)
	for i := 0; i < nstages; i++ {
		parent := -1
		if i > 0 {
			parent = r.Intn(i)
		}
		vi := fmt.Sprintf("v%d", i)
		vars := []string{vi, vi + "b"}
		if parent >= 0 {
			vars = []string{fmt.Sprintf("v%d", parent), vi}
		}
		in := StageInput[float64]{Name: fmt.Sprintf("S%d", i), Vars: vars, Parent: parent}
		for k := 0; k < rows; k++ {
			in.Rows = append(in.Rows, []Value{int64(r.Intn(dom)), int64(r.Intn(dom))})
			in.Weights = append(in.Weights, float64(r.Intn(40)))
		}
		inputs[i] = in
	}
	return inputs
}

// bruteOpt computes, for a state, the true minimum subtree weight by
// exhaustive recursion over raw rows (no group machinery).
func bruteOpt(g *Graph[float64], stage int, state int32) float64 {
	st := g.Stages[stage]
	w := st.Weight[state]
	for _, cs := range st.ChildStages {
		child := g.Stages[cs]
		best := math.Inf(1)
		for r := 0; r < child.N; r++ {
			ok := true
			for i, c := range child.JoinCols {
				if child.Cols[c][r] != st.Cols[child.ParentJoinCols[i]][state] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if v := bruteOpt(g, cs, int32(r)); v < best {
				best = v
			}
		}
		w += best
	}
	return w
}

// TestBottomUpOptMatchesBruteForce is the DP-correctness property (Eq. 7 /
// Theorem 14): every state's Opt equals the exhaustive minimum.
func TestBottomUpOptMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		inputs := randomTreeInputs(r, 2+r.Intn(3), 1+r.Intn(8), 1+r.Intn(4))
		g, err := Build[float64](dioid.Tropical{}, inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.BottomUp()
		for si := 1; si < len(g.Stages); si++ {
			st := g.Stages[si]
			for s, got := range st.Opt {
				want := bruteOpt(g, si, int32(s))
				if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
					t.Fatalf("trial %d stage %d state %d: Opt=%v brute=%v", trial, si, s, got, want)
				}
			}
		}
	}
}

// TestGroupInvariants checks that after BottomUp every group's Members are
// exactly its alive members, Costs match their Opt, and Min/MinIdx are
// consistent.
func TestGroupInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	d := dioid.Tropical{}
	for trial := 0; trial < 40; trial++ {
		inputs := randomTreeInputs(r, 2+r.Intn(4), 1+r.Intn(10), 1+r.Intn(4))
		g, err := Build[float64](d, inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.BottomUp()
		for si := 1; si < len(g.Stages); si++ {
			st := g.Stages[si]
			for gi := range st.Groups {
				grp := &st.Groups[gi]
				min := math.Inf(1)
				for i, m := range grp.Members {
					opt := st.Opt[m]
					if math.IsInf(opt, 1) {
						t.Fatalf("dead member %d in group", m)
					}
					if grp.Costs[i] != opt {
						t.Fatalf("cost mismatch")
					}
					if opt < min {
						min = opt
					}
				}
				if len(grp.Members) == 0 {
					if !math.IsInf(grp.Min, 1) {
						t.Fatalf("empty group with finite Min %v", grp.Min)
					}
					continue
				}
				if grp.Min != min || grp.Costs[grp.MinIdx] != min {
					t.Fatalf("Min inconsistent: %v vs %v", grp.Min, min)
				}
			}
		}
	}
}

// TestGraphIsReadOnlyDuringEnumeration: building the graph once and running
// several consumers must be safe — BottomUp is the only mutation.
func TestGraphSharedAcrossReaders(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	inputs := randomTreeInputs(r, 4, 10, 3)
	g, err := Build[float64](dioid.Tropical{}, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := g.BottomUp()
	// Re-running BottomUp must be idempotent.
	after := g.BottomUp()
	if before != after && !(math.IsInf(before, 1) && math.IsInf(after, 1)) {
		t.Fatalf("BottomUp not idempotent: %v vs %v", before, after)
	}
}
