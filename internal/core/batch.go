package core

import (
	"sort"

	"anyk/internal/dpgraph"
)

// batchEnum materializes the entire output by backtracking over the reduced
// state space — this is exactly the join phase of the Yannakakis algorithm,
// since the bottom-up pass already performed the semi-join reduction — and
// then (optionally) sorts it with a general comparison sort. It is the
// paper's Batch / Batch(NoSort) baseline.
type batchEnum[W any] struct {
	sols []Solution[W]
	next int
}

func newBatch[W any](g *dpgraph.Graph[W], sorted bool) *batchEnum[W] {
	e := &batchEnum[W]{}
	if g.Empty() {
		return e
	}
	d := g.D
	cur := make([]int32, len(g.Stages))
	for i := range cur {
		cur[i] = -1
	}
	cur[0] = 0
	serial := g.Serial
	// The counting recurrence gives the output size exactly, so the state
	// vectors of all solutions can live in one flat block, carved per row.
	nrows := 0
	if total := Count(g); total < 1<<32 {
		nrows = int(total)
	}
	flat := make([]int32, 0, nrows*len(cur))
	e.sols = make([]Solution[W], 0, nrows)
	var rec func(j int, w W)
	rec = func(j int, w W) {
		if j == len(serial) {
			off := len(flat)
			flat = append(flat, cur...)
			states := flat[off:len(flat):len(flat)]
			states[0] = -1
			e.sols = append(e.sols, Solution[W]{States: states, Weight: w})
			return
		}
		si := serial[j]
		st := g.Stages[si]
		gi := g.Stages[st.Parent].Link(cur[st.Parent], st.Branch)
		for _, m := range st.Groups[gi].Members {
			cur[si] = m
			rec(j+1, d.Times(w, st.EffWeight[m]))
		}
		cur[si] = -1
	}
	rec(0, d.One())
	if sorted {
		sort.SliceStable(e.sols, func(a, b int) bool { return d.Less(e.sols[a].Weight, e.sols[b].Weight) })
	}
	return e
}

func (e *batchEnum[W]) Next() (Solution[W], bool) {
	if e.next >= len(e.sols) {
		return Solution[W]{}, false
	}
	s := e.sols[e.next]
	e.next++
	return s, true
}

// Count enumerates nothing but returns the output size |out| of the reduced
// graph in O(states) time, by running the counting recurrence bottom-up.
// Useful to size experiments without materializing results.
func Count[W any](g *dpgraph.Graph[W]) float64 {
	if g.Empty() {
		return 0
	}
	counts := make([][]float64, len(g.Stages))
	for idx := len(g.Stages) - 1; idx >= 0; idx-- {
		st := g.Stages[idx]
		counts[idx] = make([]float64, st.N)
		for s := range counts[idx] {
			c := 1.0
			dead := false
			for b, cs := range st.ChildStages {
				if g.Stages[cs].Pruned {
					continue
				}
				gi := st.Link(int32(s), b)
				if gi < 0 {
					dead = true
					break
				}
				sub := 0.0
				for _, m := range g.Stages[cs].Groups[gi].Members {
					sub += counts[cs][m]
				}
				c *= sub
			}
			if dead {
				c = 0
			}
			counts[idx][s] = c
		}
	}
	return counts[0][0]
}
