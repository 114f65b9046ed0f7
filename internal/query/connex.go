package query

import "fmt"

// PlanNode is one stage of a (possibly projected) join-tree plan. A node
// binds the variables Vars, sourced from atom Atom; when len(Vars) <
// len(atom.Vars) the node is a projection of the atom. Prune marks nodes that
// exist only to enforce joins on existentially quantified variables: after
// the bottom-up pass their optimal weights fold into their parent and they
// are removed from enumeration (min-weight-projection semantics, Thm 20).
type PlanNode struct {
	Atom   int
	Vars   []string
	Parent int
	Prune  bool
}

// Plan is a rooted tree of PlanNodes covering the query. For a full CQ it is
// just the join tree (one node per atom, nothing pruned).
type Plan struct {
	Q     *CQ
	Nodes []PlanNode
	Order []int // preorder
}

// JoinVars returns the join variables between node c and its parent.
func (p *Plan) JoinVars(c int) []string {
	pa := p.Nodes[c].Parent
	if pa < 0 {
		return nil
	}
	return Intersect(p.Nodes[c].Vars, p.Nodes[pa].Vars)
}

// FullPlan builds the plan of a full acyclic CQ from its join tree.
func FullPlan(q *CQ) (*Plan, error) {
	t, err := BuildJoinTree(q)
	if err != nil {
		return nil, err
	}
	nodes := make([]PlanNode, len(q.Atoms))
	for i, a := range q.Atoms {
		nodes[i] = PlanNode{Atom: i, Vars: a.Vars, Parent: t.Parent[i]}
	}
	return &Plan{Q: q, Nodes: nodes, Order: t.Order}, nil
}

// ConnexPlan builds a plan realizing min-weight-projection semantics for a
// free-connex acyclic CQ (Section 8.1): a connected set U of non-pruned nodes
// binding exactly the free variables, with projected copies of mixed atoms in
// U and the original atoms (plus purely-existential atoms) hanging below as
// pruned nodes.
//
// Supported class: free-connex queries in which each connected component of
// atoms linked by existential variables contains at most one atom that also
// has free variables. This covers the standard projection patterns (endpoint
// projections of paths/stars, Example 19); other free-connex queries fall
// back to all-weight semantics in the engine.
func ConnexPlan(q *CQ) (*Plan, error) {
	if q.IsFull() {
		return FullPlan(q)
	}
	if !IsFreeConnex(q) {
		return nil, fmt.Errorf("query %s is not free-connex; min-weight projection unsupported", q.Name)
	}
	free := map[string]bool{}
	for _, v := range q.FreeVars() {
		free[v] = true
	}
	// Classify atoms.
	type class int
	const (
		pure  class = iota // all vars free
		mixed              // some free, some existential
		exist              // no free vars
	)
	cls := make([]class, len(q.Atoms))
	kept := make([][]string, len(q.Atoms)) // free vars per atom
	for i, a := range q.Atoms {
		var k, e []string
		for _, v := range a.Vars {
			if free[v] {
				k = append(k, v)
			} else {
				e = append(e, v)
			}
		}
		kept[i] = k
		switch {
		case len(e) == 0:
			cls[i] = pure
		case len(k) == 0:
			cls[i] = exist
		default:
			cls[i] = mixed
		}
	}
	// Connected components of non-pure atoms linked by existential vars.
	comp := make([]int, len(q.Atoms))
	for i := range comp {
		comp[i] = -1
	}
	ncomp := 0
	for i := range q.Atoms {
		if cls[i] == pure || comp[i] != -1 {
			continue
		}
		// BFS over shared existential variables.
		queue := []int{i}
		comp[i] = ncomp
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for j := range q.Atoms {
				if cls[j] == pure || comp[j] != -1 {
					continue
				}
				if sharesExistential(q.Atoms[u], q.Atoms[j], free) {
					comp[j] = ncomp
					queue = append(queue, j)
				}
			}
		}
		ncomp++
	}
	anchors := make([]int, ncomp) // the unique mixed atom per component, or -1
	for c := range anchors {
		anchors[c] = -1
	}
	for i := range q.Atoms {
		if comp[i] < 0 || cls[i] != mixed {
			continue
		}
		if anchors[comp[i]] != -1 {
			return nil, fmt.Errorf("query %s: existential component with multiple free-variable atoms; unsupported by the connex planner", q.Name)
		}
		anchors[comp[i]] = i
	}
	// Build the U tree over pure atoms + projections of anchors.
	type unode struct {
		atom int
		vars []string
	}
	var us []unode
	uOf := map[int]int{} // atom -> U node index
	for i := range q.Atoms {
		if cls[i] == pure {
			uOf[i] = len(us)
			us = append(us, unode{atom: i, vars: q.Atoms[i].Vars})
		} else if cls[i] == mixed && anchors[comp[i]] == i {
			uOf[i] = len(us)
			us = append(us, unode{atom: i, vars: kept[i]})
		}
	}
	if len(us) == 0 {
		return nil, fmt.Errorf("query %s: no free variables bound by any atom", q.Name)
	}
	uEdges := make([][]string, len(us))
	covered := map[string]bool{}
	for i, u := range us {
		uEdges[i] = u.vars
		for _, v := range u.vars {
			covered[v] = true
		}
	}
	for v := range free {
		if !covered[v] {
			return nil, fmt.Errorf("query %s: free variable %s not covered by the connex set", q.Name, v)
		}
	}
	uParent, ok := GYO(uEdges)
	if !ok {
		return nil, fmt.Errorf("query %s: projected connex hypergraph is cyclic", q.Name)
	}
	// Assemble plan nodes: U nodes first, then per-component pruned subtrees.
	nodes := make([]PlanNode, len(us))
	for i, u := range us {
		nodes[i] = PlanNode{Atom: u.atom, Vars: u.vars, Parent: uParent[i]}
	}
	uRoot := rootOf(uParent)
	for c := 0; c < ncomp; c++ {
		var members []int
		for i := range q.Atoms {
			if comp[i] == c {
				members = append(members, i)
			}
		}
		edges := make([][]string, len(members))
		for i, m := range members {
			edges[i] = q.Atoms[m].Vars
		}
		cParent, ok := GYO(edges)
		if !ok {
			return nil, fmt.Errorf("query %s: existential component is cyclic", q.Name)
		}
		// Attach the component under its anchor's U node (or the U root for
		// fully disconnected existential components, which act as global
		// filters with empty join keys).
		attach := uRoot
		if a := anchors[c]; a != -1 {
			attach = uOf[a]
			// Reroot the component tree at the anchor so the anchor's full
			// atom sits directly below its projection.
			local := -1
			for i, m := range members {
				if m == a {
					local = i
				}
			}
			sub := &JoinTree{Parent: cParent, Root: rootOf(cParent)}
			subQ := &CQ{Atoms: make([]Atom, len(members))}
			for i, m := range members {
				subQ.Atoms[i] = q.Atoms[m]
			}
			sub.Q = subQ
			sub = sub.Reroot(local)
			cParent = sub.Parent
		}
		base := len(nodes)
		for i, m := range members {
			p := cParent[i]
			pn := attach
			if p != -1 {
				pn = base + p
			}
			nodes = append(nodes, PlanNode{Atom: m, Vars: q.Atoms[m].Vars, Parent: pn, Prune: true})
		}
	}
	plan := &Plan{Q: q, Nodes: nodes}
	parent := make([]int, len(nodes))
	for i, n := range nodes {
		parent[i] = n.Parent
	}
	if !verifyTreeVars(varSetsOf(nodes), parent) {
		return nil, fmt.Errorf("query %s: connex plan violates running intersection; unsupported", q.Name)
	}
	plan.Order = preorder(parent, rootOfNodes(nodes))
	return plan, nil
}

func sharesExistential(a, b Atom, free map[string]bool) bool {
	for _, v := range a.Vars {
		if free[v] {
			continue
		}
		for _, w := range b.Vars {
			if v == w {
				return true
			}
		}
	}
	return false
}

func rootOfNodes(nodes []PlanNode) int {
	for i, n := range nodes {
		if n.Parent == -1 {
			return i
		}
	}
	return -1
}

func varSetsOf(nodes []PlanNode) [][]string {
	out := make([][]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Vars
	}
	return out
}

// verifyTreeVars checks the running-intersection property over arbitrary
// per-node variable sets.
func verifyTreeVars(varSets [][]string, parent []int) bool {
	seen := map[string]bool{}
	for _, vs := range varSets {
		for _, v := range vs {
			seen[v] = true
		}
	}
	for v := range seen {
		tops := 0
		for i, vs := range varSets {
			if !contains(vs, v) {
				continue
			}
			p := parent[i]
			if p == -1 || !contains(varSets[p], v) {
				tops++
			}
		}
		if tops > 1 {
			return false
		}
	}
	return true
}

func contains(vs []string, v string) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}
