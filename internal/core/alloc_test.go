package core

import (
	"math/rand"
	"testing"

	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
)

// warmSessionAllocs is what one session over a shared, already built graph
// allocated at the commit before the flat layout (893248a): a Take2
// enumerator, 1 000 Next calls and their row assembly on the 4 000-state
// 4-path below. The flat layout must not make a session dearer — no
// per-session views or copies of the choice sets, no larger enumerator tables.
const warmSessionAllocs = 886

func TestWarmSessionAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	const n = 1000
	inputs := make([]dpgraph.StageInput[float64], 4)
	for i := range inputs {
		in := dpgraph.StageInput[float64]{Name: "R", Vars: []string{string(rune('a' + i)), string(rune('b' + i))}, Parent: i - 1}
		for k := 0; k < n; k++ {
			in.Rows = append(in.Rows, []dpgraph.Value{int64(r.Intn(n / 10)), int64(r.Intn(n / 10))})
			in.Weights = append(in.Weights, r.Float64()*10000)
		}
		inputs[i] = in
	}
	g := buildGraph(t, dioid.Tropical{}, inputs)
	row := make([]dpgraph.Value, len(g.OutVars))
	got := testing.AllocsPerRun(20, func() {
		e := New[float64](g, Take2)
		for k := 0; k < 1000; k++ {
			sol, ok := e.Next()
			if !ok {
				t.Fatal("stream ended early")
			}
			row = g.AssembleRow(sol.States, row)
		}
	})
	if got > warmSessionAllocs {
		t.Fatalf("a warm session allocates %v objects, %d at the parent commit", got, warmSessionAllocs)
	}
}
