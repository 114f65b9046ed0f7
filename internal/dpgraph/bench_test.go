package dpgraph

import (
	"fmt"
	"math/rand"
	"testing"

	"anyk/internal/dioid"
)

// pathInputs is a 4-path over four n-row stages with values uniform in
// [0, n/10) — the shape and fanout of the benchmark's path workloads — in
// the columnar spelling.
func pathInputs(n int, seed int64) []StageInput[float64] {
	r := rand.New(rand.NewSource(seed))
	dom := max(n/10, 1)
	inputs := make([]StageInput[float64], 4)
	for i := range inputs {
		a, b := make([]Value, n), make([]Value, n)
		ws := make([]float64, n)
		for k := 0; k < n; k++ {
			a[k], b[k], ws[k] = int64(r.Intn(dom)), int64(r.Intn(dom)), r.Float64()*10000
		}
		inputs[i] = StageInput[float64]{
			Name:    fmt.Sprintf("R%d", i+1),
			Vars:    []string{fmt.Sprintf("x%d", i), fmt.Sprintf("x%d", i+1)},
			Cols:    [][]Value{a, b},
			Weights: ws,
			Parent:  i - 1,
		}
	}
	return inputs
}

var benchSizes = []int{10_000, 100_000}

func BenchmarkBuild(b *testing.B) {
	for _, n := range benchSizes {
		inputs := pathInputs(n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var g *Graph[float64]
			for i := 0; i < b.N; i++ {
				g, _ = Build[float64](dioid.Tropical{}, inputs, nil)
			}
			b.ReportMetric(float64(g.SizeBytes())/float64(g.NumStates()), "B/state")
		})
	}
}

func BenchmarkBottomUp(b *testing.B) {
	for _, n := range benchSizes {
		g, err := Build[float64](dioid.Tropical{}, pathInputs(n, 1), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.BottomUp() // a repeat pass does the first one's work again
			}
			b.ReportMetric(float64(g.SizeBytes())/float64(g.NumStates()), "B/state")
		})
	}
}

func BenchmarkAssembleRow(b *testing.B) {
	for _, n := range benchSizes {
		g, err := Build[float64](dioid.Tropical{}, pathInputs(n, 1), nil)
		if err != nil {
			b.Fatal(err)
		}
		g.BottomUp()
		r := rand.New(rand.NewSource(2))
		sols := make([][]int32, 1024)
		for i := range sols {
			sols[i] = []int32{-1, int32(r.Intn(n)), int32(r.Intn(n)), int32(r.Intn(n)), int32(r.Intn(n))}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			row := make([]Value, len(g.OutVars))
			for i := 0; i < b.N; i++ {
				row = g.AssembleRow(sols[i%len(sols)], row)
			}
			b.ReportMetric(float64(g.SizeBytes())/float64(g.NumStates()), "B/state")
		})
	}
}

// TestBuildAllocsIndependentOfN: Build and BottomUp allocate per stage, not
// per state — the same number of objects for a thousand rows a stage as for a
// hundred thousand.
func TestBuildAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int) float64 {
		inputs := pathInputs(n, 3)
		return testing.AllocsPerRun(3, func() {
			g, err := Build[float64](dioid.Tropical{}, inputs, nil)
			if err != nil {
				t.Fatal(err)
			}
			g.BottomUp()
		})
	}
	small, large := allocs(1_000), allocs(100_000)
	if small != large {
		t.Fatalf("Build+BottomUp allocate %v objects at n=1000 but %v at n=100000", small, large)
	}
}
