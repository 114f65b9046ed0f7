package dpgraph

import (
	"strings"
	"testing"

	"anyk/internal/dioid"
)

// example6 builds the Cartesian product R1×R2×R3 of the paper's running
// example: tuple weight equals tuple label.
func example6(t *testing.T) *Graph[float64] {
	t.Helper()
	mk := func(name string, v string, parent int, vals ...Value) StageInput[float64] {
		rows := make([][]Value, len(vals))
		ws := make([]float64, len(vals))
		for i, x := range vals {
			rows[i] = []Value{x}
			ws[i] = float64(x)
		}
		return StageInput[float64]{Name: name, Vars: []string{v}, Rows: rows, Weights: ws, Parent: parent}
	}
	g, err := Build[float64](dioid.Tropical{}, []StageInput[float64]{
		mk("R1", "x1", -1, 1, 2, 3),
		mk("R2", "x2", 0, 10, 20, 30),
		mk("R3", "x3", 1, 100, 200, 300),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestExample6BottomUp(t *testing.T) {
	g := example6(t)
	if got := g.BottomUp(); got != 111 {
		t.Fatalf("optimal weight = %v, want 111", got)
	}
	if g.Empty() {
		t.Fatal("nonempty product reported empty")
	}
	// π1 at state "2" of stage 1 should be 2+10+100 = 112 (Example 7).
	if got := g.Stages[1].Opt[1]; got != 112 {
		t.Fatalf("Opt(\"2\") = %v, want 112", got)
	}
	// Single shared group per stage (empty join key).
	for _, st := range g.Stages[1:] {
		if len(st.Groups) != 1 || len(st.Groups[0].Members) != 3 {
			t.Fatalf("stage %s groups wrong: %+v", st.Name, st.Groups)
		}
	}
	if g.NumStates() != 10 {
		t.Fatalf("NumStates = %d", g.NumStates())
	}
}

func TestDeadStateElimination(t *testing.T) {
	// 2-path where R2 has no partner for R1's second tuple.
	g, err := Build[float64](dioid.Tropical{}, []StageInput[float64]{
		{Name: "R1", Vars: []string{"a", "b"}, Parent: -1,
			Rows: [][]Value{{1, 10}, {2, 99}}, Weights: []float64{1, 0.5}},
		{Name: "R2", Vars: []string{"b", "c"}, Parent: 0,
			Rows: [][]Value{{10, 7}, {10, 8}, {55, 9}}, Weights: []float64{3, 2, 1}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.BottomUp(); got != 3 { // 1 + 2
		t.Fatalf("opt = %v, want 3", got)
	}
	st1 := g.Stages[1]
	// tuple (2,99) must be dead: Opt = Zero
	if g.D.Less(st1.Opt[1], g.D.Zero()) {
		t.Fatal("dead state has finite Opt")
	}
	// root group over R1 contains only the alive tuple
	rootGroups := g.Stages[1].Groups
	if len(rootGroups) != 1 || len(rootGroups[0].Members) != 1 || rootGroups[0].Members[0] != 0 {
		t.Fatalf("root group = %+v", rootGroups)
	}
	// R2's (55,9) group exists but is never referenced by alive parents
	st2 := g.Stages[2]
	if len(st2.Groups) != 2 {
		t.Fatalf("R2 groups = %d", len(st2.Groups))
	}
}

func TestEmptyOutput(t *testing.T) {
	g, err := Build[float64](dioid.Tropical{}, []StageInput[float64]{
		{Name: "R1", Vars: []string{"a", "b"}, Parent: -1,
			Rows: [][]Value{{1, 10}}, Weights: []float64{1}},
		{Name: "R2", Vars: []string{"b", "c"}, Parent: 0,
			Rows: [][]Value{{11, 7}}, Weights: []float64{3}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.BottomUp()
	if !g.Empty() {
		t.Fatal("empty join not detected")
	}
}

func TestAssembleRow(t *testing.T) {
	g := example6(t)
	g.BottomUp()
	row := g.AssembleRow([]int32{-1, 0, 2, 1}, nil)
	if len(row) != 3 || row[0] != 1 || row[1] != 30 || row[2] != 200 {
		t.Fatalf("row = %v", row)
	}
	if len(g.OutVars) != 3 || g.OutVars[0] != "x1" {
		t.Fatalf("OutVars = %v", g.OutVars)
	}
}

func TestBuildErrors(t *testing.T) {
	type in = StageInput[float64]
	ok := in{Name: "A", Vars: []string{"x", "y"}, Parent: -1, Rows: [][]Value{{1, 2}}, Weights: []float64{1}}
	pruned := in{Name: "P", Vars: []string{"x", "z"}, Parent: 0, Prune: true, Rows: [][]Value{{1, 3}}, Weights: []float64{1}}
	cases := []struct {
		name    string
		inputs  []in
		outVars []string
		want    string // substring of the error
	}{
		{"no inputs", nil, nil, "no stage inputs"},
		{"parent after child", []in{{Name: "A", Vars: []string{"x"}, Parent: 1}, {Name: "B", Vars: []string{"x"}, Parent: -1}}, nil, "input 0 (A): parent 1 out of preorder"},
		{"parent is self", []in{{Name: "A", Vars: []string{"x"}, Parent: 0}}, nil, "input 0 (A): parent 0 out of preorder"},
		{"parent below -1", []in{{Name: "A", Vars: []string{"x"}, Parent: -2}}, nil, "input 0 (A): parent -2 out of preorder"},
		{"rows without weights", []in{{Name: "A", Vars: []string{"x"}, Parent: -1, Rows: [][]Value{{1}}}}, nil, "input 0 (A): 1 rows but 0 weights"},
		{"weights without rows", []in{{Name: "A", Vars: []string{"x"}, Parent: -1, Rows: [][]Value{}, Weights: []float64{1}}}, nil, "0 rows but 1 weights"},
		{"short row", []in{ok, {Name: "B", Vars: []string{"y", "z"}, Parent: 0, Rows: [][]Value{{2, 5}, {2}}, Weights: []float64{1, 1}}}, nil, "input 1 (B): row 1 has 1 values for 2 variables"},
		{"long row", []in{{Name: "A", Vars: []string{"x"}, Parent: -1, Rows: [][]Value{{1, 2}}, Weights: []float64{1}}}, nil, "row 0 has 2 values for 1 variables"},
		{"rows and cols", []in{{Name: "A", Vars: []string{"x"}, Parent: -1, Rows: [][]Value{{1}}, Cols: [][]Value{{1}}, Weights: []float64{1}}}, nil, "both Rows and Cols are set"},
		{"neither rows nor cols", []in{{Name: "A", Vars: []string{"x"}, Parent: -1, Weights: []float64{1}}}, nil, "neither Rows nor Cols is set, but 1 weights"},
		{"column count", []in{{Name: "A", Vars: []string{"x", "y"}, Parent: -1, Cols: [][]Value{{1}}, Weights: []float64{1}}}, nil, "1 columns for 2 variables"},
		{"ragged cols", []in{{Name: "A", Vars: []string{"x", "y"}, Parent: -1, Cols: [][]Value{{1, 2}, {3}}, Weights: []float64{1, 1}}}, nil, "column 1 (y) has 1 values but there are 2 weights"},
		{"cols without weights", []in{{Name: "A", Vars: []string{"x"}, Parent: -1, Cols: [][]Value{{1, 2}}, Weights: []float64{1}}}, nil, "column 0 (x) has 2 values but there are 1 weights"},
		{"unknown output variable", []in{ok}, []string{"x", "nope"}, "output variable nope is bound by no unpruned stage"},
		{"output variable of a pruned stage", []in{ok, pruned}, []string{"x", "z"}, "output variable z is bound by no unpruned stage"},
		{"output variable twice", []in{ok}, []string{"x", "x"}, "output variable x is listed twice"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := Build[float64](dioid.Tropical{}, c.inputs, c.outVars)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Build = %v, %v; want an error containing %q", g, err, c.want)
			}
		})
	}
	// The spellings Build must keep accepting: an input with no tuples at
	// all (what append-built stages look like when nothing qualified), and
	// outVars a subset of the bound variables.
	g, err := Build[float64](dioid.Tropical{}, []in{ok, {Name: "E", Vars: []string{"y", "z"}, Parent: 0}}, []string{"y"})
	if err != nil {
		t.Fatal(err)
	}
	if g.BottomUp(); !g.Empty() || g.Stages[2].N != 0 {
		t.Fatalf("empty stage: N=%d empty=%v", g.Stages[2].N, g.Empty())
	}
}

func TestTreeShapedGraph(t *testing.T) {
	// Star: center R1(a,b) with satellites R2(a,c), R3(a,d).
	g, err := Build[float64](dioid.Tropical{}, []StageInput[float64]{
		{Name: "R1", Vars: []string{"a", "b"}, Parent: -1,
			Rows: [][]Value{{1, 5}, {2, 6}}, Weights: []float64{1, 2}},
		{Name: "R2", Vars: []string{"a", "c"}, Parent: 0,
			Rows: [][]Value{{1, 7}, {1, 8}, {2, 9}}, Weights: []float64{10, 20, 30}},
		{Name: "R3", Vars: []string{"a", "d"}, Parent: 0,
			Rows: [][]Value{{1, 11}, {2, 12}}, Weights: []float64{100, 200}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.BottomUp(); got != 111 { // 1+10+100
		t.Fatalf("opt = %v", got)
	}
	st1 := g.Stages[1]
	if len(st1.ChildStages) != 2 || len(st1.UnprunedBranches) != 2 {
		t.Fatalf("branches wrong: %+v", st1)
	}
	// Opt of center tuple (2,6): 2+30+200 = 232
	if st1.Opt[1] != 232 {
		t.Fatalf("Opt((2,6)) = %v", st1.Opt[1])
	}
}

func TestPrunedBranchFoldsIntoEffWeight(t *testing.T) {
	// R1(a) with pruned child R2(a,b): EffWeight of R1 states must include
	// the best matching R2 weight; Serial must skip the pruned stage.
	g, err := Build[float64](dioid.Tropical{}, []StageInput[float64]{
		{Name: "R1", Vars: []string{"a"}, Parent: -1,
			Rows: [][]Value{{1}, {2}}, Weights: []float64{1, 2}},
		{Name: "R2", Vars: []string{"a", "b"}, Parent: 0, Prune: true,
			Rows: [][]Value{{1, 5}, {1, 6}, {2, 7}}, Weights: []float64{50, 40, 60}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.BottomUp(); got != 41 {
		t.Fatalf("opt = %v, want 41", got)
	}
	st1 := g.Stages[1]
	if st1.EffWeight[0] != 41 || st1.EffWeight[1] != 62 {
		t.Fatalf("EffWeights = %v, %v", st1.EffWeight[0], st1.EffWeight[1])
	}
	if len(g.Serial) != 1 || g.Serial[0] != 1 {
		t.Fatalf("Serial = %v", g.Serial)
	}
	if len(st1.UnprunedBranches) != 0 {
		t.Fatal("pruned branch still listed")
	}
	if len(g.OutVars) != 1 || g.OutVars[0] != "a" {
		t.Fatalf("OutVars = %v", g.OutVars)
	}
}

// TestSizeBytesCountsOwnedArraysOnly pins what SizeBytes (the dp_bytes trace
// counter) counts: the arrays Build allocates, never the Cols blocks and
// Weights a columnar stage input lends the graph. For R(x,y) (3 rows, one
// group under the root) and S(y,z) (2 rows, two groups) under tropical
// float64, with 64-byte Group headers:
//
//	root: Weight + Opt 16, Links 4                                     =  20
//	R:    Opt 24, Links 12, members 12, starts 8, costs 24, groups 64  = 144
//	S:    Opt 16, members 8, starts 12, costs 16, groups 128           = 180
//
// The same inputs spelled as Rows add the transposed value blocks Build
// allocates for them: 8 B × (3×2 + 2×2).
func TestSizeBytesCountsOwnedArraysOnly(t *testing.T) {
	rows := [][][]Value{{{1, 2}, {3, 2}, {5, 4}}, {{2, 7}, {4, 8}}}
	vars := [][]string{{"x", "y"}, {"y", "z"}}
	weights := [][]float64{{1, 2, 3}, {1, 1}}
	build := func(columnar bool) *Graph[float64] {
		inputs := make([]StageInput[float64], len(rows))
		for i := range rows {
			in := StageInput[float64]{Name: vars[i][0], Vars: vars[i], Weights: weights[i], Parent: i - 1}
			if columnar {
				in.Cols = make([][]Value, len(vars[i]))
				for _, row := range rows[i] {
					for c, v := range row {
						in.Cols[c] = append(in.Cols[c], v)
					}
				}
			} else {
				in.Rows = rows[i]
			}
			inputs[i] = in
		}
		g, err := Build[float64](dioid.Tropical{}, inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tc := range []struct {
		columnar bool
		want     int64
	}{{true, 344}, {false, 344 + 8*(3*2+2*2)}} {
		g := build(tc.columnar)
		if got := g.SizeBytes(); got != tc.want {
			t.Errorf("columnar=%v: SizeBytes %d, want %d", tc.columnar, got, tc.want)
		}
		g.BottomUp()
		if got := g.SizeBytes(); got != tc.want {
			t.Errorf("columnar=%v: SizeBytes %d after BottomUp, want %d", tc.columnar, got, tc.want)
		}
	}
}
