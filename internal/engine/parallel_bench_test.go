package engine

import (
	"fmt"
	"testing"

	"anyk/internal/core"
	"anyk/internal/dataset"
	"anyk/internal/dioid"
	"anyk/internal/query"
)

// TestEnumerateUnionEmptyTreesParallel: the union step must return an empty
// iterator — not panic — for an empty decomposition, on the parallel path as
// on the serial one.
func TestEnumerateUnionEmptyTreesParallel(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		it, err := enumerateUnion[float64](dioid.Tropical{}, nil, []string{"x"}, "", core.Take2, Options{Parallelism: p})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if _, ok := it.Next(); ok {
			t.Fatalf("p=%d: empty union yielded a row", p)
		}
		it.Close()
	}
}

// TestParallelMergeNoSources: the exported merge constructor must tolerate
// zero sources.
func TestParallelMergeNoSources(t *testing.T) {
	m := core.NewParallelMerge[float64](dioid.Tropical{}, nil)
	if _, ok := m.Next(); ok {
		t.Fatal("empty merge yielded a row")
	}
	m.Close()
}

// BenchmarkDrainParallelism drains the fig10a workload (4-path, uniform,
// ~1e6 results) at several parallelism settings — the speedup curve the par1
// experiment reports, as a Go benchmark.
func BenchmarkDrainParallelism(b *testing.B) {
	db := dataset.Uniform(4, 1000, 1)
	q := query.PathQuery(4)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Take2, Options{Parallelism: p})
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					if _, ok := it.Next(); !ok {
						break
					}
					n++
				}
				it.Close()
				if n == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}
