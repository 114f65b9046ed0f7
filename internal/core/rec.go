package core

import (
	"fmt"
	"math/bits"

	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
	"anyk/internal/heapq"
)

// recEnum implements anyK-rec (the Recursive Enumeration Algorithm,
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
//
// The memo lives in flat memory, so a drain allocates per group and per
// stage, never per result: group memos sit by value in dense per-stage
// tables, multi-branch states in a dense table per stage, rank vectors in
// one pointer-free slab per stage, and suffix lists in segmented vectors
// that never move.
type recEnum[W any] struct {
	g *dpgraph.Graph[W]
	d dioid.Dioid[W]

	groups   [][]recGroup[W] // per stage, per group id
	stages   []recStage[W]   // per stage: multi-branch states only
	sufLess  func(a, b recSuffix[W]) bool
	combLess func(a, b recComb[W]) bool
	k        int
	cur      []int32
	done     bool
	pushes   int // Stats: frontier insertions
}

// recSuffix is the j-th ranked suffix of a group: take member (a position in
// the group's Members) together with that state's rank-th subtree solution.
type recSuffix[W any] struct {
	cost   W
	member int32
	rank   int32
}

// recGroup memoizes a group's ranked suffixes; pq == nil until the group's
// first visit. Invariant: the priority queue's top equals the last element
// of the list; popping it and reinserting the member's next-ranked suffix
// reveals the following solution.
//
// keepLast marks the root's single-reader list: when the virtual root has
// one unpruned branch, its child group is read only by Next, at rank k and
// nowhere below, so sols keeps just the last suffix and dropped counts the
// ranks before it. The list's logical length is dropped + sols.len().
type recGroup[W any] struct {
	sols     segvec[recSuffix[W]]
	pq       *heapq.Heap[recSuffix[W]]
	dropped  int32
	keepLast bool
}

// len returns the number of suffixes revealed so far.
func (rg *recGroup[W]) len() int32 { return rg.dropped + rg.sols.len() }

// push appends the next revealed suffix; a keep-last list overwrites its one
// entry.
func (rg *recGroup[W]) push(x recSuffix[W]) {
	if rg.keepLast && rg.sols.len() > 0 {
		*rg.sols.at(0) = x
		rg.dropped++
		return
	}
	rg.sols.push(x)
}

// at returns the rank-th suffix; on a keep-last list any rank but the last
// panics.
func (rg *recGroup[W]) at(rank int32) *recSuffix[W] {
	if rank < rg.dropped {
		panic(fmt.Sprintf("core: anyK-rec read rank %d of the root list, which keeps only rank %d", rank, rg.dropped))
	}
	return rg.sols.at(rank - rg.dropped)
}

// recComb is one ranked combination of branch solutions at a multi-branch
// state: record at of the stage's rank slab holds, at position d, the
// solution rank used for branch d.
type recComb[W any] struct {
	cost W
	at   int32
}

// recState memoizes a multi-branch state's ranked branch combinations.
type recState[W any] struct {
	sols segvec[recComb[W]]
	pq   *heapq.Heap[recComb[W]]
}

// recStage holds the memo of a stage with more than one unpruned branch.
// slot[s] is 1 + the index of state s in states (0: not yet visited), and
// ranks is the append-only slab of rank vectors, width int32s per record.
type recStage[W any] struct {
	slot   []int32
	states []recState[W]
	ranks  []int32
	width  int
}

func newRec[W any](g *dpgraph.Graph[W]) *recEnum[W] {
	e := &recEnum[W]{g: g, d: g.D}
	e.groups = make([][]recGroup[W], len(g.Stages))
	for i, st := range g.Stages {
		e.groups[i] = make([]recGroup[W], len(st.Groups))
	}
	e.stages = make([]recStage[W], len(g.Stages))
	e.sufLess = func(a, b recSuffix[W]) bool { return e.d.Less(a.cost, b.cost) }
	e.combLess = func(a, b recComb[W]) bool { return e.d.Less(a.cost, b.cost) }
	if root := g.Stages[0]; len(root.UnprunedBranches) == 1 && !g.Empty() {
		b := root.UnprunedBranches[0]
		e.groups[root.ChildStages[b]][root.Link(0, b)].keepLast = true
	}
	e.cur = make([]int32, len(g.Stages))
	e.done = g.Empty()
	return e
}

func (e *recEnum[W]) Next() (Solution[W], bool) {
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
func (e *recEnum[W]) stateSolCost(stage int, state int32, rank int32) (W, bool) {
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
	ms := &e.stages[stage]
	rs := e.recStateOf(st, ms, state)
	if !e.stateAdvance(st, state, ms, rs, rank) {
		var zero W
		return zero, false
	}
	return rs.sols.at(rank).cost, true
}

// recStateOf returns state's memo, creating it (and, on the stage's first
// visit, the stage's table) on demand. The pointer is valid until the
// stage's next new state: recursion only reaches descendant stages.
func (e *recEnum[W]) recStateOf(st *dpgraph.Stage[W], ms *recStage[W], state int32) *recState[W] {
	if ms.slot == nil {
		ms.slot = make([]int32, st.N)
		ms.width = len(st.UnprunedBranches)
	}
	if i := ms.slot[state]; i != 0 {
		return &ms.states[i-1]
	}
	ms.states = append(ms.states, recState[W]{pq: heapq.New(4, e.combLess)})
	ms.slot[state] = int32(len(ms.states))
	rs := &ms.states[len(ms.states)-1]
	at := len(ms.ranks) / ms.width
	ms.ranks = append(ms.ranks, make([]int32, ms.width)...)
	if cost, ok := e.combCost(st, state, ms.ranks[at*ms.width:]); ok {
		rs.pq.Push(recComb[W]{cost: cost, at: int32(at)})
		e.pushes++
	} else {
		ms.ranks = ms.ranks[:at*ms.width]
	}
	return rs
}

// stateAdvance grows rs.sols to cover rank, using the duplicate-free
// Cartesian-product frontier: popping a combination inserts the variants
// that increment dimension d, for every d whose following dimensions are all
// at rank zero. Each variant's rank vector is appended to the stage's slab;
// a rejected variant truncates it back.
func (e *recEnum[W]) stateAdvance(st *dpgraph.Stage[W], state int32, ms *recStage[W], rs *recState[W], rank int32) bool {
	w := ms.width
	for rs.sols.len() <= rank {
		top, ok := rs.pq.Pop()
		if !ok {
			return false
		}
		rs.sols.push(top)
		from := int(top.at) * w
		for d := w - 1; d >= 0; d-- {
			at := len(ms.ranks)
			for i := from; i < from+w; i++ { // w is tiny: no memmove call
				ms.ranks = append(ms.ranks, ms.ranks[i])
			}
			next := ms.ranks[at:]
			next[d]++
			if cost, ok := e.combCost(st, state, next); ok {
				rs.pq.Push(recComb[W]{cost: cost, at: int32(at / w)})
				e.pushes++
			} else {
				ms.ranks = ms.ranks[:at]
			}
			if ms.ranks[from+d] != 0 {
				break // only dimensions followed by all-zero ranks may advance
			}
		}
	}
	return true
}

// combCost computes ⊗ over branches of the branch-group solution costs at
// the given ranks; ok is false when some branch has no solution of that rank.
func (e *recEnum[W]) combCost(st *dpgraph.Stage[W], state int32, ranks []int32) (W, bool) {
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
func (e *recEnum[W]) groupSol(stage int, gi int32, rank int32) (recSuffix[W], bool) {
	rg := &e.groups[stage][gi]
	if rg.pq == nil {
		e.initGroup(rg, stage, gi)
	}
	st := e.g.Stages[stage]
	grp := &st.Groups[gi]
	for rg.len() <= rank {
		// Pop the suffix that was last revealed and replace it with the
		// member's next-ranked solution; the new top is the next suffix.
		top, ok := rg.pq.Pop()
		if !ok {
			return recSuffix[W]{}, false
		}
		memberState := grp.Members[top.member]
		if cost, ok2 := e.stateSolCost(stage, memberState, top.rank+1); ok2 {
			w := e.d.Times(st.EffWeight[memberState], cost)
			rg.pq.Push(recSuffix[W]{cost: w, member: top.member, rank: top.rank + 1})
			e.pushes++
		}
		nxt, ok := rg.pq.Peek()
		if !ok {
			return recSuffix[W]{}, false
		}
		rg.push(nxt)
	}
	return *rg.at(rank), true
}

func (e *recEnum[W]) initGroup(rg *recGroup[W], stage int, gi int32) {
	grp := &e.g.Stages[stage].Groups[gi]
	entries := make([]recSuffix[W], len(grp.Members))
	for p := range grp.Members {
		// Costs[p] = Opt(member) = EffWeight ⊗ best subtree = rank-0 suffix.
		entries[p] = recSuffix[W]{cost: grp.Costs[p], member: int32(p), rank: 0}
	}
	rg.pq = heapq.From(entries, e.sufLess)
	e.pushes += len(entries)
	if top, ok := rg.pq.Peek(); ok {
		rg.push(top)
	}
}

// materialize writes the states of (stage, state)'s rank-th subtree solution
// into e.cur. All required memo entries exist because their costs were
// computed first.
func (e *recEnum[W]) materialize(stage int, state int32, rank int32) {
	if stage != 0 {
		e.cur[stage] = state
	}
	st := e.g.Stages[stage]
	branches := st.UnprunedBranches
	if len(branches) == 0 {
		return
	}
	var one [1]int32
	ranks := one[:]
	if len(branches) == 1 {
		one[0] = rank
	} else {
		ms := &e.stages[stage]
		rs := e.recStateOf(st, ms, state)
		e.stateAdvance(st, state, ms, rs, rank)
		at := int(rs.sols.at(rank).at) * ms.width
		ranks = ms.ranks[at : at+ms.width]
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

// segvec is an append-only vector whose elements never move: segment i
// holds 4<<i elements, so growth allocates the next segment, copies nothing
// and leaves no garbage, and an index costs one bits.Len.
type segvec[T any] struct {
	segs [][]T
	n    int32
}

func (v *segvec[T]) len() int32 { return v.n }

// at returns a pointer to element i < len(); it stays valid for good.
func (v *segvec[T]) at(i int32) *T {
	x := uint32(i) + 4
	s := bits.Len32(x) - 3
	return &v.segs[s][x-4<<s]
}

func (v *segvec[T]) push(x T) {
	if s := bits.Len32(uint32(v.n)+4) - 3; s == len(v.segs) {
		v.segs = append(v.segs, make([]T, 0, 4<<s))
	}
	last := &v.segs[len(v.segs)-1]
	*last = append(*last, x)
	v.n++
}
