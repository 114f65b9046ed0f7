package dpgraph

import (
	"runtime"
	"sync"
)

// parMinChunk is the smallest per-worker slice worth a goroutine: below it the
// spawn/synchronization cost dominates the DP arithmetic it would hide.
const parMinChunk = 2048

// parallelFor runs f over contiguous chunks covering [0, n), using at most
// workers goroutines. With workers <= 1 or a small n it runs inline, so the
// serial path stays allocation- and goroutine-free. Every index is touched by
// exactly one worker, so any f writing only to its own indexes is
// deterministic regardless of the worker count.
func parallelFor(workers, n int, f func(lo, hi int)) {
	if n == 0 {
		return
	}
	if workers > n/parMinChunk {
		workers = n / parMinChunk
	}
	if workers <= 1 {
		f(0, n)
		return
	}
	size := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// BottomUpP is BottomUp with the per-stage work spread over a worker pool.
// Stages form a chain of dependencies (a parent needs its children's group
// minima), so the reverse serialized order is kept; within one stage the
// per-state Opt/EffWeight computations are independent of each other, as are
// the per-group shrink passes, and both parallelize freely. Each group is
// shrunk entirely by one worker, within its own window of the stage's CSR
// arrays, so Members order, Costs and the MinIdx tie-break match the serial
// pass exactly — the worker count never changes the graph that enumeration
// sees. workers <= 0 uses GOMAXPROCS.
func (g *Graph[W]) BottomUpP(workers int) W {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	d := g.D
	zero := d.Zero()
	for idx := len(g.Stages) - 1; idx >= 0; idx-- {
		st := g.Stages[idx]
		k := len(st.ChildStages)
		folds := g.hasPrunedChild(st) // else EffWeight is Weight: nothing to write
		// The children's group minima, packed: the state loop below looks one
		// up per state and branch, and a Group is eight times a W wide.
		mins := make([][]W, k)
		for b, cs := range st.ChildStages {
			groups := g.Stages[cs].Groups
			mins[b] = make([]W, len(groups))
			for gi := range groups {
				mins[b][gi] = groups[gi].Min
			}
		}
		parallelFor(workers, st.N, func(lo, hi int) {
			copy(st.Opt[lo:hi], st.Weight[lo:hi])
			if folds {
				copy(st.EffWeight[lo:hi], st.Weight[lo:hi])
			}
			// Branch by branch, so each pass streams through Links and the
			// weight arrays; per state the ⊗ order is still branch order.
			for b, cs := range st.ChildStages {
				pruned := g.Stages[cs].Pruned
				for s := lo; s < hi; s++ {
					m := zero
					if gi := st.Links[s*k+b]; gi >= 0 {
						m = mins[b][gi]
					}
					st.Opt[s] = d.Times(st.Opt[s], m)
					if pruned {
						st.EffWeight[s] = d.Times(st.EffWeight[s], m)
					}
				}
			}
		})
		parallelFor(workers, len(st.Groups), func(lo, hi int) {
			// Gather the costs of these groups' window of the CSR in one
			// tight loop (the one random read per state; kept free of calls
			// so that the misses overlap), then shrink group by group.
			from, to := st.starts[lo], st.starts[hi]
			for i, m := range st.members[from:to] {
				st.costs[int(from)+i] = st.Opt[m]
			}
			for gi := lo; gi < hi; gi++ {
				grp := &st.Groups[gi]
				members, costs := grp.Members, grp.Costs
				best, bestIdx, alive := zero, int32(-1), int32(0)
				for i, c := range costs {
					if !d.Less(c, zero) {
						continue // dead state
					}
					members[alive], costs[alive] = members[i], c
					if bestIdx < 0 || d.Less(c, best) {
						best, bestIdx = c, alive
					}
					alive++
				}
				grp.Members, grp.Costs = members[:alive], costs[:alive]
				grp.Min, grp.MinIdx = best, bestIdx
			}
		})
	}
	return g.Stages[0].Opt[0]
}
