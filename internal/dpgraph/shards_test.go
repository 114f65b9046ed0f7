package dpgraph_test

// The view tests enumerate through package core, which imports dpgraph, so
// they live in the external test package.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"anyk/internal/core"
	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
)

type input = dpgraph.StageInput[float64]

// randomStage returns a stage of n random rows over vars, with values below
// dom and integer weights.
func randomStage(r *rand.Rand, name string, parent int, vars []string, n, dom int) input {
	in := input{Name: name, Vars: vars, Parent: parent, Rows: [][]dpgraph.Value{}}
	for k := 0; k < n; k++ {
		row := make([]dpgraph.Value, len(vars))
		for c := range row {
			row[c] = int64(r.Intn(dom))
		}
		in.Rows = append(in.Rows, row)
		in.Weights = append(in.Weights, float64(r.Intn(40)))
	}
	return in
}

func buildUp(t *testing.T, inputs []input) *dpgraph.Graph[float64] {
	t.Helper()
	g, err := dpgraph.Build[float64](dioid.Tropical{}, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.BottomUp()
	return g
}

// batchRows is g's Batch output as sorted "values weight" strings.
func batchRows(g *dpgraph.Graph[float64]) []string {
	it := core.NewGraphIter[float64](g, core.New[float64](g, core.Batch), 0)
	var out []string
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, fmt.Sprint(r.Vals, r.Weight))
	}
	slices.Sort(out)
	return out
}

// minWeight is the weight of g's best solution found by Batch, with the
// root's EffWeight (the pruned root children, which Batch leaves out)
// folded in, so it is comparable with Opt[0].
func minWeight(g *dpgraph.Graph[float64]) float64 {
	e := core.New[float64](g, core.Batch)
	best := g.D.Zero()
	for {
		s, ok := e.Next()
		if !ok {
			break
		}
		best = min(best, s.Weight)
	}
	return g.D.Times(g.Stages[0].EffWeight[0], best)
}

func TestShards(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	path := func(n0 int) []input {
		return []input{
			randomStage(r, "R1", -1, []string{"a", "b"}, n0, 3),
			randomStage(r, "R2", 0, []string{"b", "c"}, 10, 3),
			randomStage(r, "R3", 1, []string{"c", "d"}, 10, 3),
		}
	}
	// Every odd state of R1 joins nothing, so the second of two views has no
	// member left.
	deadOdd := []input{
		{Name: "R1", Vars: []string{"a", "b"}, Parent: -1,
			Rows:    [][]dpgraph.Value{{0, 1}, {1, 9}, {2, 1}, {3, 9}, {4, 2}, {5, 9}},
			Weights: []float64{5, 1, 3, 2, 4, 0}},
		{Name: "R2", Vars: []string{"b", "c"}, Parent: 0,
			Rows: [][]dpgraph.Value{{1, 7}, {2, 8}, {1, 6}}, Weights: []float64{1, 2, 3}},
	}
	cases := []struct {
		name   string
		inputs []input
		p      int
		views  int // want len(Shards(p))
		child  int // stage the views copy; 0 = none (Shards returns g)
		empty  []int
	}{
		{name: "path", inputs: path(12), p: 4, views: 4, child: 1},
		{name: "odd split", inputs: path(12), p: 3, views: 3, child: 1},
		{name: "p above N", inputs: path(3), p: 16, views: 3, child: 1},
		{name: "empty view", inputs: deadOdd, p: 2, views: 2, child: 1, empty: []int{1}},
		{name: "star root", inputs: []input{
			randomStage(r, "A", -1, []string{"a"}, 5, 4),
			randomStage(r, "B", -1, []string{"b"}, 4, 4),
			randomStage(r, "C", 0, []string{"a", "c"}, 30, 4),
			randomStage(r, "D", -1, []string{"d"}, 3, 4),
		}, p: 2, views: 2, child: 1},
		{name: "pruned root child", inputs: []input{
			{Name: "P", Vars: []string{"z"}, Parent: -1, Prune: true,
				Rows: [][]dpgraph.Value{{1}, {2}}, Weights: []float64{7, 4}},
			randomStage(r, "A", -1, []string{"a", "b"}, 9, 3),
			randomStage(r, "B", 1, []string{"b", "c"}, 9, 3),
		}, p: 4, views: 4, child: 2},
		{name: "single-state root child", inputs: []input{
			randomStage(r, "A", -1, []string{"a"}, 1, 3),
			randomStage(r, "B", -1, []string{"b", "c"}, 5, 3),
			randomStage(r, "C", 1, []string{"c", "d"}, 6, 3),
		}, p: 2, views: 2, child: 2},
		{name: "nothing to split", inputs: []input{
			randomStage(r, "A", -1, []string{"a", "b"}, 1, 3),
			randomStage(r, "B", 0, []string{"b", "c"}, 6, 3),
		}, p: 4, views: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := buildUp(t, c.inputs)
			twin := buildUp(t, c.inputs)
			if !reflect.DeepEqual(g, twin) {
				t.Fatal("two builds of one input differ")
			}
			want := batchRows(g)
			if len(want) == 0 {
				t.Fatal("instance has no solutions")
			}
			views := g.Shards(c.p)
			if len(views) != c.views {
				t.Fatalf("%d views, want %d", len(views), c.views)
			}
			if c.child == 0 && views[0] != g {
				t.Fatal("Shards copied a graph it cannot split")
			}
			var got []string
			for k, v := range views {
				rows := batchRows(v)
				got = append(got, rows...)
				if v.Empty() != slices.Contains(c.empty, k) {
					t.Fatalf("view %d: Empty() = %v, %d rows", k, v.Empty(), len(rows))
				}
				if !v.Empty() && v.Stages[0].Opt[0] != minWeight(v) {
					t.Fatalf("view %d: Opt[0] = %v, its best solution weighs %v", k, v.Stages[0].Opt[0], minWeight(v))
				}
				for i, st := range v.Stages {
					if copied := st != g.Stages[i]; c.child != 0 && copied != (i == 0 || i == c.child) {
						t.Fatalf("view %d: stage %d copied = %v, want only the root and stage %d", k, i, copied, c.child)
					}
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("views' solutions %v, graph's %v", got, want)
			}
			if !reflect.DeepEqual(g, twin) {
				t.Fatal("Shards or enumerating its views changed the graph")
			}
		})
	}
}

// TestShardViewsConcurrent runs eight enumerators of several algorithms at
// once over the views of one graph (and the graph itself); run it under
// -race. Each must reproduce the stream its view yields alone.
func TestShardViewsConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g := buildUp(t, []input{
		randomStage(r, "R1", -1, []string{"a", "b"}, 40, 5),
		randomStage(r, "R2", 0, []string{"b", "c"}, 40, 5),
		randomStage(r, "R3", 1, []string{"c", "d"}, 40, 5),
	})
	views := g.Shards(3)
	algs := []core.Algorithm{core.Take2, core.Recursive, core.Lazy, core.Eager, core.All}
	drain := func(v *dpgraph.Graph[float64], alg core.Algorithm) []float64 {
		var ws []float64
		e := core.New[float64](v, alg)
		for {
			s, ok := e.Next()
			if !ok {
				return ws
			}
			ws = append(ws, s.Weight)
		}
	}
	const workers = 8
	graphs := make([]*dpgraph.Graph[float64], workers)
	refs := make([][]float64, workers)
	for i := range graphs {
		graphs[i] = g
		if i < 2*len(views) {
			graphs[i] = views[i%len(views)]
		}
		refs[i] = drain(graphs[i], core.Take2)
	}
	var wg sync.WaitGroup
	for i := range graphs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			alg := algs[i%len(algs)]
			if got := drain(graphs[i], alg); !slices.Equal(got, refs[i]) {
				t.Errorf("worker %d (%v): %d weights, want %d", i, alg, len(got), len(refs[i]))
			}
		}(i)
	}
	wg.Wait()
}
