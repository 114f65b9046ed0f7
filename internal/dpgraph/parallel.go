package dpgraph

import (
	"runtime"
	"slices"
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

// Shards splits the enumeration of a bottom-upped g into views for up to p
// enumerators running concurrently. Every solution picks exactly one state of
// the first unpruned root child with at least two states, so partitioning
// that child's single choice set partitions the solutions: view k keeps the
// members whose state id ≡ k mod min(p, N), in g's member order. A view
// shares every array with g except two stages: its copy of that child, whose
// one group is the view's members with their own Min/MinIdx, and its copy of
// the root, whose Opt[0] is recomputed over the view's minima in branch order
// — exactly what BottomUp would compute for a graph holding only those
// states. A view whose members are all gone is Empty. Without such a child,
// or with p < 2, Shards returns g alone. Views are read-only, for
// enumeration: never run BottomUp on one.
func (g *Graph[W]) Shards(p int) []*Graph[W] {
	root := g.Stages[0]
	ci := -1
	for _, b := range root.UnprunedBranches {
		if cs := root.ChildStages[b]; g.Stages[cs].N >= 2 {
			ci = cs
			break
		}
	}
	if p < 2 || ci < 0 {
		return []*Graph[W]{g}
	}
	d, child := g.D, g.Stages[ci]
	s := min(p, child.N)
	// View k's group is a window of the two arrays sized for every state id
	// ≡ k mod s, so one pass over the (alive) members fills all of them.
	all := child.Groups[0]
	members := make([]int32, child.N)
	costs := make([]W, child.N)
	groups := make([]Group[W], s)
	for k, off := 0, 0; k < s; k++ {
		n := (child.N - k + s - 1) / s
		groups[k] = Group[W]{Members: members[off : off : off+n], Costs: costs[off : off : off+n], MinIdx: -1, Min: d.Zero()}
		off += n
	}
	for i, m := range all.Members {
		v := &groups[int(m)%s]
		c := all.Costs[i]
		if v.MinIdx < 0 || d.Less(c, v.Min) {
			v.Min, v.MinIdx = c, int32(len(v.Members))
		}
		v.Members = append(v.Members, m)
		v.Costs = append(v.Costs, c)
	}
	views := make([]*Graph[W], s)
	for k := range views {
		v := *g
		v.Stages = slices.Clone(g.Stages)
		rootCopy, childCopy := *root, *child
		childCopy.Groups = groups[k : k+1 : k+1]
		v.Stages[0], v.Stages[ci] = &rootCopy, &childCopy
		opt := root.Weight[0]
		for b, cs := range root.ChildStages {
			m := d.Zero()
			if gi := root.Links[b]; gi >= 0 {
				m = v.Stages[cs].Groups[gi].Min
			}
			opt = d.Times(opt, m)
		}
		rootCopy.Opt = []W{opt}
		views[k] = &v
	}
	return views
}
