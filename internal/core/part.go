package core

import (
	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
	"anyk/internal/heapq"
)

// partEnum implements anyK-part (Algorithm 1): a global priority queue of
// candidate prefixes, each annotated with the weight of its best completion,
// popped in rank order and expanded stage by stage along the serialized
// order. The four instantiations differ only in how a group's choices are
// organized and how successors are produced (Section 4.1.3).
type partEnum[W any] struct {
	g       *dpgraph.Graph[W]
	d       dioid.Dioid[W]
	grp     dioid.Group[W] // non-nil iff the dioid has an inverse
	variant Algorithm

	// choice-set structures per stage per group, lazily initialized on
	// first visit (the paper's lazy-initialization optimization).
	groups [][]partGroup[W]

	cand *heapq.Heap[cand[W]]
	cur  []int32 // scratch: state per stage during expansion; aliased by Next's Solution

	// slab batches chain-node allocations. Nodes are immutable once linked
	// and stay reachable through candidates in the queue, so the slab only
	// amortizes allocation count — it never recycles memory.
	slab []chain[W]

	inserted int // Stats: total candidate insertions
	maxQueue int // Stats: candidate queue high-water mark

	serialPos []int // stage index -> position in g.Serial, -1 otherwise
}

// partGroup organizes one shared choice set. order holds positions into the
// group's Members slice; its meaning depends on the variant: sorted ascending
// (Eager, and the drained prefix of Lazy), heap layout (Take2), or raw with
// the minimum swapped to the front (All). costs is aligned with order.
type partGroup[W any] struct {
	inited bool
	order  []int32
	costs  []W
	heap   *heapq.Heap[int32] // Lazy only: not-yet-drained member positions
}

// chain is an immutable linked prefix of states, one node per serialized
// stage; sharing makes candidate creation O(1) space.
type chain[W any] struct {
	parent *chain[W]
	stage  int32
	state  int32
	accW   W // ⊗ of EffWeight over the prefix (used by the inverse-free path)
}

// cand is Algorithm 1's candidate: a prefix (stages before serial position
// r), the designated choice at r (a position into the group's order), and
// prio = weight of the candidate's best completion.
type cand[W any] struct {
	prio   W
	prefix *chain[W]
	r      int32
	choice int32
}

func newPart[W any](g *dpgraph.Graph[W], variant Algorithm) *partEnum[W] {
	e := &partEnum[W]{g: g, d: g.D, variant: variant}
	if grp, ok := g.D.(dioid.Group[W]); ok {
		e.grp = grp
	}
	e.groups = make([][]partGroup[W], len(g.Stages))
	for i, st := range g.Stages {
		e.groups[i] = make([]partGroup[W], len(st.Groups))
	}
	e.cand = heapq.New[cand[W]](64, func(a, b cand[W]) bool { return g.D.Less(a.prio, b.prio) })
	e.cur = make([]int32, len(g.Stages))
	e.serialPos = make([]int, len(g.Stages))
	for i := range e.serialPos {
		e.serialPos[i] = -1
	}
	for p, si := range g.Serial {
		e.serialPos[si] = p
	}
	switch {
	case g.Empty():
		// no candidates: Next returns false immediately
	case len(g.Serial) == 0:
		// Degenerate: every stage pruned — a single solution remains.
		e.cand.Push(cand[W]{prio: g.Stages[0].Opt[0], r: -1})
	default:
		e.cand.Push(cand[W]{prio: g.Stages[0].Opt[0], r: 0, choice: 0})
	}
	return e
}

func (e *partEnum[W]) Next() (Solution[W], bool) {
	c, ok := e.cand.Pop()
	if !ok {
		return Solution[W]{}, false
	}
	for i := range e.cur {
		e.cur[i] = -1
	}
	if c.r < 0 { // degenerate all-pruned solution
		return Solution[W]{States: e.cur, Weight: c.prio}, true
	}
	e.cur[0] = 0
	for ch := c.prefix; ch != nil; ch = ch.parent {
		e.cur[ch.stage] = ch.state
	}
	link := c.prefix
	// Expand stages r..ℓ, generating sibling candidates along the way
	// (lines 11–23 of Algorithm 1).
	for j := int(c.r); j < len(e.g.Serial); j++ {
		si := e.g.Serial[j]
		st := e.g.Stages[si]
		gi := e.g.Stages[st.Parent].Link(e.cur[st.Parent], st.Branch)
		grp := &st.Groups[gi]
		pg := &e.groups[si][gi]
		if !pg.inited {
			e.initGroup(pg, grp)
		}
		choice := int32(0)
		if j == int(c.r) {
			choice = c.choice
		}
		curCost := pg.costs[choice]
		// Sibling candidates: Succ(tail, last) per variant.
		switch e.variant {
		case Eager:
			e.pushSibling(pg, grp, link, j, choice, curCost, choice+1, c.prio)
		case Lazy:
			e.lazyEnsure(pg, grp, int(choice)+2)
			e.pushSibling(pg, grp, link, j, choice, curCost, choice+1, c.prio)
		case Take2:
			e.pushSibling(pg, grp, link, j, choice, curCost, 2*choice+1, c.prio)
			e.pushSibling(pg, grp, link, j, choice, curCost, 2*choice+2, c.prio)
		case All:
			if choice == 0 {
				for s := int32(1); s < int32(len(pg.order)); s++ {
					e.pushSibling(pg, grp, link, j, choice, curCost, s, c.prio)
				}
			}
		}
		state := grp.Members[pg.order[choice]]
		e.cur[si] = state
		accW := e.d.One()
		if e.grp == nil {
			prev := accW
			if link != nil {
				prev = link.accW
			}
			accW = e.d.Times(prev, st.EffWeight[state])
		}
		link = e.newChain(link, int32(si), state, accW)
	}
	e.cur[0] = -1 // root slot is artificial
	return Solution[W]{States: e.cur, Weight: c.prio}, true
}

// newChain carves a chain node out of the slab.
func (e *partEnum[W]) newChain(parent *chain[W], stage, state int32, accW W) *chain[W] {
	if len(e.slab) == 0 {
		e.slab = make([]chain[W], 256)
	}
	n := &e.slab[0]
	e.slab = e.slab[1:]
	n.parent, n.stage, n.state, n.accW = parent, stage, state, accW
	return n
}

// pushSibling inserts the candidate that deviates at serial position j from
// the taken choice to sibling position s, if s exists. Its priority is
// derived in O(1) with the dioid inverse (Section 6.2), or recomputed from
// the prefix in O(ℓ) for pure monoids.
func (e *partEnum[W]) pushSibling(pg *partGroup[W], grp *dpgraph.Group[W], prefix *chain[W], j int, taken int32, takenCost W, s int32, prio W) {
	if s < 0 || int(s) >= len(pg.order) || s == taken {
		return
	}
	var p W
	if e.grp != nil {
		p = e.d.Times(e.grp.Minus(prio, takenCost), pg.costs[s])
	} else {
		p = e.recomputePrio(prefix, j, pg.costs[s])
	}
	e.cand.Push(cand[W]{prio: p, prefix: prefix, r: int32(j), choice: s})
	e.inserted++
	if n := e.cand.Len(); n > e.maxQueue {
		e.maxQueue = n
	}
}

// recomputePrio computes prefixWeight ⊗ cost(choice at serial position j) ⊗
// the optimal completions of every branch still open after stage j. This is
// the O(ℓ) inverse-free fallback discussed in Section 6.2.
func (e *partEnum[W]) recomputePrio(prefix *chain[W], j int, choiceCost W) W {
	d := e.d
	p := choiceCost
	if prefix != nil {
		p = d.Times(prefix.accW, p)
	}
	// Open branches of the artificial root.
	p = d.Times(p, e.openBranches(0, 0, j))
	for ch := prefix; ch != nil; ch = ch.parent {
		p = d.Times(p, e.openBranches(int(ch.stage), ch.state, j))
	}
	return p
}

// openBranches multiplies the group minima of state's unpruned branches whose
// child stage lies strictly after serial position j.
func (e *partEnum[W]) openBranches(stage int, state int32, j int) W {
	d := e.d
	st := e.g.Stages[stage]
	w := d.One()
	for _, b := range st.UnprunedBranches {
		cs := st.ChildStages[b]
		if e.serialPos[cs] <= j {
			continue
		}
		child := e.g.Stages[cs]
		w = d.Times(w, child.Groups[st.Link(state, b)].Min)
	}
	return w
}

func (e *partEnum[W]) initGroup(pg *partGroup[W], grp *dpgraph.Group[W]) {
	pg.inited = true
	n := len(grp.Members)
	pg.order = make([]int32, n)
	for i := range pg.order {
		pg.order[i] = int32(i)
	}
	byCost := func(a, b int32) bool { return e.d.Less(grp.Costs[a], grp.Costs[b]) }
	switch e.variant {
	case Eager:
		sortInt32(pg.order, byCost)
		pg.costs = make([]W, n)
		for i, p := range pg.order {
			pg.costs[i] = grp.Costs[p]
		}
	case Take2:
		heapq.Heapify(pg.order, byCost)
		pg.costs = make([]W, n)
		for i, p := range pg.order {
			pg.costs[i] = grp.Costs[p]
		}
	case All:
		pg.order[0], pg.order[grp.MinIdx] = pg.order[grp.MinIdx], pg.order[0]
		pg.costs = make([]W, n)
		for i, p := range pg.order {
			pg.costs[i] = grp.Costs[p]
		}
	case Lazy:
		pg.heap = heapq.From(pg.order, byCost)
		pg.order = nil
		pg.costs = nil
		e.lazyEnsure(pg, grp, 2) // pre-pop the top two (Section 4.1.3)
	}
}

// lazyEnsure drains the Lazy heap until the sorted prefix has at least n
// entries (or the heap is empty).
func (e *partEnum[W]) lazyEnsure(pg *partGroup[W], grp *dpgraph.Group[W], n int) {
	for len(pg.order) < n {
		p, ok := pg.heap.Pop()
		if !ok {
			return
		}
		pg.order = append(pg.order, p)
		pg.costs = append(pg.costs, grp.Costs[p])
	}
}

// sortInt32 is an insertion/quick hybrid kept dependency-free; n is a group
// size (≤ n tuples).
func sortInt32(a []int32, less func(x, y int32) bool) {
	if len(a) < 24 {
		for i := 1; i < len(a); i++ {
			for k := i; k > 0 && less(a[k], a[k-1]); k-- {
				a[k], a[k-1] = a[k-1], a[k]
			}
		}
		return
	}
	pivot := a[len(a)/2]
	lo, hi := 0, len(a)-1
	for lo <= hi {
		for less(a[lo], pivot) {
			lo++
		}
		for less(pivot, a[hi]) {
			hi--
		}
		if lo <= hi {
			a[lo], a[hi] = a[hi], a[lo]
			lo++
			hi--
		}
	}
	sortInt32(a[:hi+1], less)
	sortInt32(a[lo:], less)
}
