package core

// refRec is the anyK-rec enumerator as it stood before its memo moved to flat
// memory (rank-vector slabs, dense state tables, segmented suffix lists),
// kept verbatim under renamed identifiers. TestRecMatchesRef drains it beside
// recEnum: the two must agree on every solution, weight and Stats counter.

import (
	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
	"anyk/internal/heapq"
)

// refRec implements anyK-rec (the Recursive Enumeration Algorithm,
// Algorithm 2), generalized to T-DP per Section 5.1:
//
//   - every shared join-key *group* memoizes the ranked sequence of suffix
//     solutions hanging below it (the k-shortest suffixes from the "key
//     node" of the transformed equi-join graph, so ranking work is shared
//     between all parent states with the same key);
//   - every *state* with more than one unpruned child branch ranks the
//     Cartesian product of its branches' solution sequences with a
//     duplicate-free Lawler-style frontier, as prescribed for tree stages;
//   - a next() call chain runs top-down on demand, exactly as in REA.
type refRec[W any] struct {
	g *dpgraph.Graph[W]
	d dioid.Dioid[W]

	groups [][]*refRecGroup[W]         // per stage, per group id
	states []map[int32]*refRecState[W] // per stage: multi-branch states only
	k      int
	cur    []int32
	done   bool
	pushes int // Stats: frontier insertions
}

// refRecSuffix is the j-th ranked suffix of a group: take member (a position in
// the group's Members) together with that state's rank-th subtree solution.
type refRecSuffix[W any] struct {
	cost   W
	member int32
	rank   int32
}

// refRecGroup memoizes a group's ranked suffixes. Invariant: the priority
// queue's top equals the last element of sols; popping it and reinserting
// the member's next-ranked suffix reveals the following solution.
type refRecGroup[W any] struct {
	sols []refRecSuffix[W]
	pq   *heapq.Heap[refRecSuffix[W]]
}

// refRecComb is one ranked combination of branch solutions at a multi-branch
// state: ranks[d] is the solution rank used for branch d.
type refRecComb[W any] struct {
	cost  W
	ranks []int32
}

// refRecState memoizes a multi-branch state's ranked branch combinations.
type refRecState[W any] struct {
	sols []refRecComb[W]
	pq   *heapq.Heap[refRecComb[W]]
}

func newRefRec[W any](g *dpgraph.Graph[W]) *refRec[W] {
	e := &refRec[W]{g: g, d: g.D}
	e.groups = make([][]*refRecGroup[W], len(g.Stages))
	for i, st := range g.Stages {
		e.groups[i] = make([]*refRecGroup[W], len(st.Groups))
	}
	e.states = make([]map[int32]*refRecState[W], len(g.Stages))
	e.cur = make([]int32, len(g.Stages))
	e.done = g.Empty()
	return e
}

func (e *refRec[W]) Next() (Solution[W], bool) {
	if e.done {
		return Solution[W]{}, false
	}
	cost, ok := e.stateSolCost(0, 0, int32(e.k))
	if !ok {
		e.done = true
		return Solution[W]{}, false
	}
	for i := range e.cur {
		e.cur[i] = -1
	}
	e.materialize(0, 0, int32(e.k))
	e.k++
	weight := e.d.Times(e.g.Stages[0].EffWeight[0], cost)
	return Solution[W]{States: e.cur, Weight: weight}, true
}

// stateSolCost returns the cost of state's rank-th subtree solution
// (excluding the state's own EffWeight), computing and memoizing it on
// demand. This is the next() recursion of Algorithm 2.
func (e *refRec[W]) stateSolCost(stage int, state int32, rank int32) (W, bool) {
	st := e.g.Stages[stage]
	branches := st.UnprunedBranches
	switch len(branches) {
	case 0:
		if rank == 0 {
			return e.d.One(), true
		}
		var zero W
		return zero, false
	case 1:
		b := branches[0]
		cs := st.ChildStages[b]
		suf, ok := e.groupSol(cs, st.Link(state, b), rank)
		if !ok {
			var zero W
			return zero, false
		}
		return suf.cost, true
	}
	rs := e.recStateOf(stage, state)
	if !e.stateAdvance(st, state, rs, rank) {
		var zero W
		return zero, false
	}
	return rs.sols[rank].cost, true
}

func (e *refRec[W]) recStateOf(stage int, state int32) *refRecState[W] {
	if e.states[stage] == nil {
		e.states[stage] = map[int32]*refRecState[W]{}
	}
	rs := e.states[stage][state]
	if rs == nil {
		rs = &refRecState[W]{}
		rs.pq = heapq.New[refRecComb[W]](4, func(a, b refRecComb[W]) bool { return e.d.Less(a.cost, b.cost) })
		st := e.g.Stages[stage]
		ranks := make([]int32, len(st.UnprunedBranches))
		cost, ok := e.combCost(st, state, ranks)
		if ok {
			rs.pq.Push(refRecComb[W]{cost: cost, ranks: ranks})
			e.pushes++
		}
		e.states[stage][state] = rs
	}
	return rs
}

// stateAdvance grows rs.sols to cover rank, using the duplicate-free
// Cartesian-product frontier: popping a combination inserts the variants
// that increment dimension d, for every d whose following dimensions are all
// at rank zero.
func (e *refRec[W]) stateAdvance(st *dpgraph.Stage[W], state int32, rs *refRecState[W], rank int32) bool {
	for int32(len(rs.sols)) <= rank {
		top, ok := rs.pq.Pop()
		if !ok {
			return false
		}
		rs.sols = append(rs.sols, top)
		for d := len(top.ranks) - 1; d >= 0; d-- {
			next := append([]int32(nil), top.ranks...)
			next[d]++
			if cost, ok := e.combCost(st, state, next); ok {
				rs.pq.Push(refRecComb[W]{cost: cost, ranks: next})
				e.pushes++
			}
			if top.ranks[d] != 0 {
				break // only dimensions followed by all-zero ranks may advance
			}
		}
	}
	return true
}

// combCost computes ⊗ over branches of the branch-group solution costs at
// the given ranks; ok is false when some branch has no solution of that rank.
func (e *refRec[W]) combCost(st *dpgraph.Stage[W], state int32, ranks []int32) (W, bool) {
	cost := e.d.One()
	for d, b := range st.UnprunedBranches {
		cs := st.ChildStages[b]
		suf, ok := e.groupSol(cs, st.Link(state, b), ranks[d])
		if !ok {
			var zero W
			return zero, false
		}
		cost = e.d.Times(cost, suf.cost)
	}
	return cost, true
}

// groupSol returns the group's rank-th suffix solution, advancing the shared
// memo as needed.
func (e *refRec[W]) groupSol(stage int, gi int32, rank int32) (refRecSuffix[W], bool) {
	rg := e.groups[stage][gi]
	if rg == nil {
		rg = e.initGroup(stage, gi)
	}
	st := e.g.Stages[stage]
	grp := &st.Groups[gi]
	for int32(len(rg.sols)) <= rank {
		// Pop the suffix that was last revealed and replace it with the
		// member's next-ranked solution; the new top is the next suffix.
		top, ok := rg.pq.Pop()
		if !ok {
			return refRecSuffix[W]{}, false
		}
		memberState := grp.Members[top.member]
		if cost, ok2 := e.stateSolCost(stage, memberState, top.rank+1); ok2 {
			w := e.d.Times(st.EffWeight[memberState], cost)
			rg.pq.Push(refRecSuffix[W]{cost: w, member: top.member, rank: top.rank + 1})
			e.pushes++
		}
		nxt, ok := rg.pq.Peek()
		if !ok {
			return refRecSuffix[W]{}, false
		}
		rg.sols = append(rg.sols, nxt)
	}
	return rg.sols[rank], true
}

func (e *refRec[W]) initGroup(stage int, gi int32) *refRecGroup[W] {
	st := e.g.Stages[stage]
	grp := &st.Groups[gi]
	rg := &refRecGroup[W]{}
	entries := make([]refRecSuffix[W], len(grp.Members))
	for p := range grp.Members {
		// Costs[p] = Opt(member) = EffWeight ⊗ best subtree = rank-0 suffix.
		entries[p] = refRecSuffix[W]{cost: grp.Costs[p], member: int32(p), rank: 0}
	}
	rg.pq = heapq.From(entries, func(a, b refRecSuffix[W]) bool { return e.d.Less(a.cost, b.cost) })
	e.pushes += len(entries)
	if top, ok := rg.pq.Peek(); ok {
		rg.sols = append(rg.sols, top)
	}
	e.groups[stage][gi] = rg
	return rg
}

// materialize writes the states of (stage, state)'s rank-th subtree solution
// into e.cur. All required memo entries exist because their costs were
// computed first.
func (e *refRec[W]) materialize(stage int, state int32, rank int32) {
	if stage != 0 {
		e.cur[stage] = state
	}
	st := e.g.Stages[stage]
	branches := st.UnprunedBranches
	if len(branches) == 0 {
		return
	}
	var ranks []int32
	if len(branches) == 1 {
		ranks = []int32{rank}
	} else {
		rs := e.recStateOf(stage, state)
		e.stateAdvance(st, state, rs, rank)
		ranks = rs.sols[rank].ranks
	}
	for d, b := range branches {
		cs := st.ChildStages[b]
		gi := st.Link(state, b)
		// groupSol is idempotent; rank-0 entries seeded from precomputed
		// group costs may not have been expanded yet, so force the memo.
		suf, _ := e.groupSol(cs, gi, ranks[d])
		child := e.g.Stages[cs].Groups[gi].Members[suf.member]
		e.materialize(cs, child, suf.rank)
	}
}

// Stats implements StatsReporter for anyK-rec: counts memoized suffix and
// combination entries across all groups and states.
func (e *refRec[W]) Stats() Stats {
	s := Stats{CandidatesInserted: e.pushes}
	total := 0
	for _, gs := range e.groups {
		for _, rg := range gs {
			if rg != nil {
				total += len(rg.sols) + rg.pq.Len()
			}
		}
	}
	for _, m := range e.states {
		for _, rs := range m {
			if rs != nil {
				total += len(rs.sols) + rs.pq.Len()
			}
		}
	}
	s.MaxQueueSize = total
	return s
}
