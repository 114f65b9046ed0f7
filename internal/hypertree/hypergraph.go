// Package hypertree plans generalized hypertree decompositions (GHDs) for
// arbitrary cyclic full conjunctive queries, realizing the paper's UT-DP
// promise (Section 5.2) beyond the hand-rolled simple-cycle decomposition of
// Section 5.3: any full CQ — triangles with appendages, cliques, chordal
// cycles, arbitrary graph patterns — is decomposed into a join tree of
// materialized bags that feeds the engine's UT-DP union.
//
// The pipeline is
//
//	Decompose(q)            — hypergraph → GHD search → *Plan (bags, covers,
//	                          atom assignment, width)
//	Materialize(d, db, p)   — evaluate every bag with the worst-case-optimal
//	                          generic join into weighted intermediate
//	                          relations, lowered to dpgraph.StageInput trees
//
// Every atom's weight is lifted in exactly one bag (its *assigned* bag), so
// ranks are never double-counted no matter how many bags reuse the atom for
// verification.
package hypertree

import (
	"sort"

	"anyk/internal/query"
)

// Hypergraph is a query's hypergraph: one vertex per variable, one hyperedge
// per atom.
type Hypergraph struct {
	Q *query.CQ
	// Vars lists the distinct variables in first-occurrence order; vertex ids
	// index into it.
	Vars   []string
	varPos map[string]int
	// Edges holds, per atom, the sorted vertex ids of its variables.
	Edges [][]int
}

// NewHypergraph builds the hypergraph of q.
func NewHypergraph(q *query.CQ) *Hypergraph {
	h := &Hypergraph{Q: q, Vars: q.Vars(), varPos: map[string]int{}}
	for i, v := range h.Vars {
		h.varPos[v] = i
	}
	h.Edges = make([][]int, len(q.Atoms))
	for i, a := range q.Atoms {
		seen := map[int]bool{}
		for _, v := range a.Vars {
			id := h.varPos[v]
			if !seen[id] {
				seen[id] = true
				h.Edges[i] = append(h.Edges[i], id)
			}
		}
		sort.Ints(h.Edges[i])
	}
	return h
}

// Components partitions the atoms into connected components (atoms sharing a
// variable, transitively). Components are ordered by their smallest atom
// index and each lists its atoms in ascending order, so planning is
// deterministic. Disconnected queries are Cartesian products of their
// components; the lowering parents every component's root at the artificial
// T-DP root, which joins them on the empty key.
func (h *Hypergraph) Components() [][]int {
	n := len(h.Edges)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	byVar := map[int]int{} // var id -> first atom containing it
	for i, e := range h.Edges {
		for _, v := range e {
			if f, ok := byVar[v]; ok {
				union(f, i)
			} else {
				byVar[v] = i
			}
		}
	}
	groups := map[int][]int{}
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], i)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}
