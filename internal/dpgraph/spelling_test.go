package dpgraph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"anyk/internal/core"
	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
)

// spellingTrial is one random tree of stages, held as rows so that it can be
// handed to Build in either spelling and with weights lifted into any dioid.
type spellingTrial struct {
	names   []string
	vars    [][]string
	parents []int
	prune   []bool
	rows    [][][]dpgraph.Value
	weights [][]float64
}

// valueDomains are the value sets stage columns draw from: small and dense
// (the direct-address path), negative, and sparse beyond 2⁴⁰ (the
// open-addressing fallbacks, exact for one key column and hashed for two).
var valueDomains = [][]dpgraph.Value{
	{0, 1, 2, 3},
	{-7, -1, 0, 5, 1 << 20},
	{-(1 << 62), -3, 2, 1 << 41, 1<<41 + 1, 1 << 62},
}

// randomTrial draws a tree in which a stage shares zero (a cartesian stage),
// one or two variables with its parent, may be empty, and may be pruned (then
// so is everything below it).
func randomTrial(r *rand.Rand) spellingTrial {
	dom := valueDomains[r.Intn(len(valueDomains))]
	nstages := 1 + r.Intn(5)
	var t spellingTrial
	for i := 0; i < nstages; i++ {
		parent := -1
		vars := []string{fmt.Sprintf("v%da", i), fmt.Sprintf("v%db", i), fmt.Sprintf("v%dc", i)}
		prune := false
		if i > 0 {
			parent = r.Intn(i)
			shared := r.Intn(3)
			perm := r.Perm(3)
			for k := 0; k < shared; k++ {
				vars[perm[k]] = t.vars[parent][r.Intn(3)]
			}
			if shared == 2 && vars[perm[0]] == vars[perm[1]] {
				vars[perm[1]] = fmt.Sprintf("v%dd", i) // a variable binds one column per stage
			}
			prune = t.prune[parent] || r.Intn(4) == 0
		}
		n := r.Intn(9)
		if r.Intn(6) == 0 {
			n = 0
		}
		rows := make([][]dpgraph.Value, n)
		ws := make([]float64, n)
		for k := range rows {
			rows[k] = []dpgraph.Value{dom[r.Intn(len(dom))], dom[r.Intn(len(dom))], dom[r.Intn(len(dom))]}
			ws[k] = float64(r.Intn(5)) // few distinct weights: ties everywhere
		}
		t.names = append(t.names, fmt.Sprintf("S%d", i))
		t.vars = append(t.vars, vars)
		t.parents = append(t.parents, parent)
		t.prune = append(t.prune, prune)
		t.rows = append(t.rows, rows)
		t.weights = append(t.weights, ws)
	}
	return t
}

// inputs spells the trial as stage inputs under d, row-shaped or columnar.
func inputs[W any](t spellingTrial, d dioid.Dioid[W], columnar bool) []dpgraph.StageInput[W] {
	out := make([]dpgraph.StageInput[W], len(t.names))
	for i := range out {
		in := dpgraph.StageInput[W]{Name: t.names[i], Vars: t.vars[i], Parent: t.parents[i], Prune: t.prune[i]}
		in.Weights = make([]W, len(t.rows[i]))
		for k, w := range t.weights[i] {
			in.Weights[k] = d.Lift(w, i, int64(k))
		}
		if columnar {
			in.Cols = make([][]dpgraph.Value, len(in.Vars))
			for c := range in.Cols {
				in.Cols[c] = make([]dpgraph.Value, len(t.rows[i]))
				for k, row := range t.rows[i] {
					in.Cols[c][k] = row[c]
				}
			}
		} else {
			in.Rows = t.rows[i]
		}
		out[i] = in
	}
	return out
}

type rankedRow[W any] struct {
	States []int32
	Weight W
	Vals   []dpgraph.Value
}

func stream[W any](g *dpgraph.Graph[W], alg core.Algorithm) []rankedRow[W] {
	var out []rankedRow[W]
	e := core.New[W](g, alg)
	for {
		sol, ok := e.Next()
		if !ok {
			return out
		}
		out = append(out, rankedRow[W]{
			States: append([]int32(nil), sol.States...),
			Weight: sol.Weight,
			Vals:   g.AssembleRow(sol.States, nil),
		})
	}
}

// checkGrouping compares the built choice sets and links with a reference
// grouping through formatted keys: groups numbered by first appearance,
// members in row order, parents linked by key equality.
func checkGrouping[W any](t *testing.T, label string, g *dpgraph.Graph[W], tr spellingTrial) {
	t.Helper()
	for si := 1; si < len(g.Stages); si++ {
		st, parent := g.Stages[si], g.Stages[g.Stages[si].Parent]
		keyOf := func(row []dpgraph.Value, cols []int) string {
			key := ""
			for _, c := range cols {
				key += fmt.Sprint(row[c], "|")
			}
			return key
		}
		index := map[string]int32{}
		var want [][]int32
		for r, row := range tr.rows[si-1] {
			k := keyOf(row, st.JoinCols)
			gi, ok := index[k]
			if !ok {
				gi = int32(len(want))
				index[k] = gi
				want = append(want, nil)
			}
			want[gi] = append(want[gi], int32(r))
		}
		if len(st.Groups) != len(want) {
			t.Fatalf("%s stage %d: %d groups, want %d", label, si, len(st.Groups), len(want))
		}
		for gi := range want {
			if !reflect.DeepEqual(st.Groups[gi].Members, want[gi]) {
				t.Fatalf("%s stage %d group %d: members %v, want %v", label, si, gi, st.Groups[gi].Members, want[gi])
			}
		}
		for s := 0; s < parent.N; s++ {
			wantLink := int32(-1)
			var prow []dpgraph.Value
			if st.Parent > 0 {
				prow = tr.rows[st.Parent-1][s]
			}
			if gi, ok := index[keyOf(prow, st.ParentJoinCols)]; ok {
				wantLink = gi
			}
			if got := parent.Link(int32(s), st.Branch); got != wantLink {
				t.Fatalf("%s stage %d: parent state %d links to %d, want %d", label, si, s, got, wantLink)
			}
		}
	}
}

func diffSpellings[W any](t *testing.T, label string, tr spellingTrial, d dioid.Dioid[W]) {
	t.Helper()
	fromRows, err := dpgraph.Build[W](d, inputs(tr, d, false), nil)
	if err != nil {
		t.Fatalf("%s rows: %v", label, err)
	}
	fromCols, err := dpgraph.Build[W](d, inputs(tr, d, true), nil)
	if err != nil {
		t.Fatalf("%s cols: %v", label, err)
	}
	checkGrouping(t, label+" rows", fromRows, tr)
	checkGrouping(t, label+" cols", fromCols, tr)
	fromRows.BottomUp()
	fromCols.BottomUp()
	for _, alg := range core.Algorithms {
		a, b := stream(fromRows, alg), stream(fromCols, alg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s %v: streams differ between spellings\nrows: %v\ncols: %v", label, alg, a, b)
		}
	}
}

// TestOneStreamWhateverTheSpelling: the same tree handed to Build as Rows
// and as Cols groups identically (against a reference grouping) and yields
// the same ranked stream — states, weights and assembled rows — under every
// algorithm, for a numeric and a tie-breaking vector dioid.
func TestOneStreamWhateverTheSpelling(t *testing.T) {
	r := rand.New(rand.NewSource(2210))
	for trial := 0; trial < 300; trial++ {
		tr := randomTrial(r)
		label := fmt.Sprintf("trial %d", trial)
		diffSpellings[float64](t, label+" tropical", tr, dioid.Tropical{})
		diffSpellings[dioid.Vec](t, label+" lex", tr, dioid.NewLex(len(tr.names)))
	}
}

// TestBottomUpRepeatableAndWorkerIndependent: a second BottomUp leaves the
// graph as the first did, and BottomUpP(4) produces BottomUp's graph field
// for field. The stages are large enough that the workers really split them.
func TestBottomUpRepeatableAndWorkerIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(2211))
	var tr spellingTrial
	for i := 0; i < 4; i++ {
		rows := make([][]dpgraph.Value, 10_000)
		ws := make([]float64, len(rows))
		for k := range rows {
			// Twice as many values as rows: many states find no partner
			// and the shrink pass has dead members to drop.
			rows[k] = []dpgraph.Value{int64(r.Intn(20_000)), int64(r.Intn(20_000))}
			ws[k] = float64(r.Intn(50))
		}
		tr.names = append(tr.names, fmt.Sprintf("R%d", i))
		tr.vars = append(tr.vars, []string{fmt.Sprintf("x%d", i), fmt.Sprintf("x%d", i+1)})
		tr.parents = append(tr.parents, i-1)
		tr.prune = append(tr.prune, i == 3)
		tr.rows = append(tr.rows, rows)
		tr.weights = append(tr.weights, ws)
	}
	build := func() *dpgraph.Graph[float64] {
		g, err := dpgraph.Build[float64](dioid.Tropical{}, inputs[float64](tr, dioid.Tropical{}, true), nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	once, twice, par := build(), build(), build()
	once.BottomUp()
	twice.BottomUp()
	twice.BottomUp()
	par.BottomUpP(4)
	alive := 0
	for _, grp := range once.Stages[2].Groups {
		alive += len(grp.Members)
	}
	if alive == 0 || alive == once.Stages[2].N {
		t.Fatalf("stage 2 has %d of %d states alive: the instance shrinks nothing", alive, once.Stages[2].N)
	}
	if !reflect.DeepEqual(once.Stages, twice.Stages) {
		t.Fatal("a second BottomUp changed the graph")
	}
	if !reflect.DeepEqual(once.Stages, par.Stages) {
		t.Fatal("BottomUpP(4) differs from BottomUp()")
	}
}
