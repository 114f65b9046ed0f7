package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
)

// buildGraph builds a T-DP graph from stage inputs with integer-valued
// weights (exact float arithmetic, so cross-algorithm comparisons are exact).
func buildGraph(t *testing.T, d dioid.Dioid[float64], inputs []dpgraph.StageInput[float64]) *dpgraph.Graph[float64] {
	t.Helper()
	g, err := dpgraph.Build[float64](d, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.BottomUp()
	return g
}

// bruteForce enumerates all solutions of the graph by unrestricted
// backtracking over raw rows (independent of group machinery) and returns
// their weights sorted ascending.
func bruteForce(g *dpgraph.Graph[float64]) []float64 {
	var out []float64
	n := len(g.Stages)
	cur := make([]int32, n)
	var rec func(idx int)
	rec = func(idx int) {
		if idx == n {
			w := 0.0
			okAll := true
			for si := 1; si < n; si++ {
				st := g.Stages[si]
				// check join with parent on raw values
				if st.Parent != 0 {
					p := g.Stages[st.Parent]
					for i, c := range st.JoinCols {
						if st.Cols[c][cur[si]] != p.Cols[st.ParentJoinCols[i]][cur[st.Parent]] {
							okAll = false
						}
					}
				}
				w += g.Stages[si].Weight[cur[si]]
			}
			if okAll {
				out = append(out, w)
			}
			return
		}
		if idx == 0 {
			cur[0] = 0
			rec(1)
			return
		}
		for r := 0; r < g.Stages[idx].N; r++ {
			cur[idx] = int32(r)
			rec(idx + 1)
		}
	}
	rec(0)
	sort.Float64s(out)
	return out
}

// checkSolution verifies a solution is join-consistent and its weight equals
// the sum of its states' weights.
func checkSolution(t *testing.T, g *dpgraph.Graph[float64], s Solution[float64]) {
	t.Helper()
	w := 0.0
	for si := 1; si < len(g.Stages); si++ {
		st := g.Stages[si]
		if st.Pruned {
			continue
		}
		r := s.States[si]
		if r < 0 {
			t.Fatalf("solution missing state for stage %s", st.Name)
		}
		w += st.Weight[r]
		if st.Parent != 0 {
			p := g.Stages[st.Parent]
			pr := s.States[st.Parent]
			for i, c := range st.JoinCols {
				if st.Cols[c][r] != p.Cols[st.ParentJoinCols[i]][pr] {
					t.Fatalf("join violation between %s and %s", st.Name, p.Name)
				}
			}
		}
	}
	if w != s.Weight {
		t.Fatalf("weight mismatch: sum=%v reported=%v", w, s.Weight)
	}
}

func drain(e Enumerator[float64], max int) []Solution[float64] {
	var out []Solution[float64]
	for len(out) < max {
		s, ok := e.Next()
		if !ok {
			break
		}
		// States is only valid until the next Next call; drain retains.
		s.States = append([]int32(nil), s.States...)
		out = append(out, s)
	}
	return out
}

func solKey(s Solution[float64]) string {
	return fmt.Sprint(s.States)
}

// randomInputs builds a random tree-shaped instance: nstages stages, random
// parents, small domains (so joins are selective but non-trivial), integer
// weights.
func randomInputs(r *rand.Rand, nstages, rows, dom int) []dpgraph.StageInput[float64] {
	d := dioid.Tropical{}
	inputs := make([]dpgraph.StageInput[float64], nstages)
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
		in := dpgraph.StageInput[float64]{Name: fmt.Sprintf("S%d", i), Vars: vars, Parent: parent}
		for k := 0; k < rows; k++ {
			row := []dpgraph.Value{int64(r.Intn(dom)), int64(r.Intn(dom))}
			in.Rows = append(in.Rows, row)
			in.Weights = append(in.Weights, d.Lift(float64(r.Intn(50)), i, int64(k)))
		}
		inputs[i] = in
	}
	return inputs
}

func TestAllAlgorithmsMatchBruteForceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		nstages := 2 + r.Intn(4)
		rows := 1 + r.Intn(12)
		dom := 1 + r.Intn(5)
		inputs := randomInputs(r, nstages, rows, dom)
		g := buildGraph(t, dioid.Tropical{}, inputs)
		want := bruteForce(g)
		for _, alg := range Algorithms {
			e := New[float64](g, alg)
			got := drain(e, len(want)+5)
			if len(got) != len(want) {
				t.Fatalf("trial %d %v: got %d solutions, want %d", trial, alg, len(got), len(want))
			}
			seen := map[string]bool{}
			for i, s := range got {
				if s.Weight != want[i] {
					t.Fatalf("trial %d %v: rank %d weight %v, want %v", trial, alg, i, s.Weight, want[i])
				}
				checkSolution(t, g, s)
				k := solKey(s)
				if seen[k] {
					t.Fatalf("trial %d %v: duplicate solution %v", trial, alg, s.States)
				}
				seen[k] = true
			}
		}
	}
}

func TestPathQueryAgainstBruteForce(t *testing.T) {
	// 4-path with shared join values to exercise group sharing.
	r := rand.New(rand.NewSource(7))
	d := dioid.Tropical{}
	var inputs []dpgraph.StageInput[float64]
	for i := 0; i < 4; i++ {
		in := dpgraph.StageInput[float64]{
			Name:   fmt.Sprintf("R%d", i+1),
			Vars:   []string{fmt.Sprintf("x%d", i+1), fmt.Sprintf("x%d", i+2)},
			Parent: i - 1,
		}
		for k := 0; k < 20; k++ {
			in.Rows = append(in.Rows, []dpgraph.Value{int64(r.Intn(4)), int64(r.Intn(4))})
			in.Weights = append(in.Weights, float64(r.Intn(30)))
		}
		inputs = append(inputs, in)
	}
	// path: stage i's parent is stage i-1, but vars must chain: fix vars so
	// join is on x(i+1): R_i(x_i, x_{i+1}); already set. Parent of R1 = -1.
	g := buildGraph(t, d, inputs)
	want := bruteForce(g)
	if len(want) == 0 {
		t.Skip("empty join; rerandomize")
	}
	for _, alg := range Algorithms {
		got := drain(New[float64](g, alg), len(want)+1)
		if len(got) != len(want) {
			t.Fatalf("%v: %d vs %d", alg, len(got), len(want))
		}
		for i := range got {
			if got[i].Weight != want[i] {
				t.Fatalf("%v rank %d: %v != %v", alg, i, got[i].Weight, want[i])
			}
		}
	}
}

func TestStarQueryAllAlgorithms(t *testing.T) {
	// Star center R1(a,b), satellites join on a: tests multi-branch T-DP,
	// in particular anyK-rec's Cartesian-product combination.
	r := rand.New(rand.NewSource(13))
	d := dioid.Tropical{}
	inputs := []dpgraph.StageInput[float64]{
		{Name: "C", Vars: []string{"a", "b"}, Parent: -1},
		{Name: "S1", Vars: []string{"a", "c"}, Parent: 0},
		{Name: "S2", Vars: []string{"a", "d"}, Parent: 0},
		{Name: "S3", Vars: []string{"a", "e"}, Parent: 0},
	}
	for i := range inputs {
		for k := 0; k < 15; k++ {
			inputs[i].Rows = append(inputs[i].Rows, []dpgraph.Value{int64(r.Intn(3)), int64(r.Intn(10))})
			inputs[i].Weights = append(inputs[i].Weights, float64(r.Intn(25)))
		}
	}
	g := buildGraph(t, d, inputs)
	want := bruteForce(g)
	for _, alg := range Algorithms {
		got := drain(New[float64](g, alg), len(want)+1)
		if len(got) != len(want) {
			t.Fatalf("%v: %d vs %d", alg, len(got), len(want))
		}
		seen := map[string]bool{}
		for i := range got {
			if got[i].Weight != want[i] {
				t.Fatalf("%v rank %d: %v != %v", alg, i, got[i].Weight, want[i])
			}
			checkSolution(t, g, got[i])
			if k := solKey(got[i]); seen[k] {
				t.Fatalf("%v: dup %v", alg, got[i].States)
			} else {
				seen[k] = true
			}
		}
	}
}

func TestMaxPlusOrdering(t *testing.T) {
	// descending sums with the (max,+) dioid
	d := dioid.MaxPlus{}
	inputs := []dpgraph.StageInput[float64]{
		{Name: "A", Vars: []string{"x"}, Parent: -1,
			Rows: [][]dpgraph.Value{{1}, {2}}, Weights: []float64{1, 2}},
		{Name: "B", Vars: []string{"y"}, Parent: 0,
			Rows: [][]dpgraph.Value{{1}, {2}}, Weights: []float64{10, 20}},
	}
	g, err := dpgraph.Build[float64](d, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.BottomUp()
	for _, alg := range Algorithms {
		got := drain(New[float64](g, alg), 10)
		wants := []float64{22, 21, 12, 11}
		if len(got) != 4 {
			t.Fatalf("%v: %d sols", alg, len(got))
		}
		for i := range wants {
			if got[i].Weight != wants[i] {
				t.Fatalf("%v rank %d: %v want %v", alg, i, got[i].Weight, wants[i])
			}
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	// Empty join: every algorithm returns nothing.
	inputs := []dpgraph.StageInput[float64]{
		{Name: "A", Vars: []string{"x", "y"}, Parent: -1,
			Rows: [][]dpgraph.Value{{1, 2}}, Weights: []float64{1}},
		{Name: "B", Vars: []string{"y", "z"}, Parent: 0,
			Rows: [][]dpgraph.Value{{3, 4}}, Weights: []float64{1}},
	}
	g := buildGraph(t, dioid.Tropical{}, inputs)
	for _, alg := range Algorithms {
		if got := drain(New[float64](g, alg), 5); len(got) != 0 {
			t.Fatalf("%v returned %d solutions on empty join", alg, len(got))
		}
	}
	// Single-stage query.
	g2 := buildGraph(t, dioid.Tropical{}, []dpgraph.StageInput[float64]{
		{Name: "A", Vars: []string{"x"}, Parent: -1,
			Rows: [][]dpgraph.Value{{5}, {6}, {7}}, Weights: []float64{3, 1, 2}},
	})
	for _, alg := range Algorithms {
		got := drain(New[float64](g2, alg), 5)
		if len(got) != 3 || got[0].Weight != 1 || got[1].Weight != 2 || got[2].Weight != 3 {
			t.Fatalf("%v single-stage wrong: %+v", alg, got)
		}
	}
}

func TestCount(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		inputs := randomInputs(r, 2+r.Intn(3), 1+r.Intn(10), 1+r.Intn(4))
		g := buildGraph(t, dioid.Tropical{}, inputs)
		want := len(bruteForce(g))
		if got := Count(g); int(got) != want {
			t.Fatalf("trial %d: Count=%v want %d", trial, got, want)
		}
	}
}

func TestAlgorithmNames(t *testing.T) {
	for a := Take2; a <= BatchNoSort; a++ {
		s := a.String()
		got, err := ParseAlgorithm(s)
		if err != nil || got != a {
			t.Fatalf("roundtrip %v failed: %v %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Fatal("expected parse error")
	}
	if Algorithm(99).String() == "" {
		t.Fatal("unknown algorithm String empty")
	}
}
