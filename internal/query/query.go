// Package query models conjunctive queries (CQs), their hypergraphs, and the
// structural machinery of the paper: the GYO reduction for acyclicity testing
// and join-tree construction (Section 2.1), join-tree re-rooting, and the
// free-connex analysis used for projections (Section 8.1).
package query

import (
	"fmt"
	"sort"
)

// Atom is one query atom R(x1,...,xk): a relation name plus a variable list,
// optionally restricted by selection predicates. Repeated relation names
// across atoms express self-joins. Vars holds *distinct* variables; an atom
// whose written form repeats a variable, mentions a constant, or skips a
// column with `_` carries an explicit Cols mapping (Cols[i] = the relation
// column bound by Vars[i]) plus Preds — the paper's selection preprocessing
// step, lowered to filtered scans instead of materialized copies.
type Atom struct {
	Rel  string
	Vars []string
	// Cols maps variable index to relation column. Nil means the identity
	// mapping (variable i binds column i), the layout of every atom written
	// without constants, `_`, or repeats — kept nil so such atoms stay
	// byte-identical in String() and therefore in plan-cache keys.
	Cols []int
	// Preds are the selection predicates on this atom's relation, pushed
	// down into the scan by the engine routes.
	Preds []Pred
}

// CQ is a conjunctive query Q(Free) :- Atoms. A nil/empty Free means the query
// is full (all variables are returned).
type CQ struct {
	Name  string
	Atoms []Atom
	Free  []string
}

// NewCQ builds a query; pass nil free for a full CQ.
func NewCQ(name string, free []string, atoms ...Atom) *CQ {
	return &CQ{Name: name, Atoms: atoms, Free: free}
}

// Vars returns all distinct variables in first-occurrence order.
func (q *CQ) Vars() []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range q.Atoms {
		for _, v := range a.Vars {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// IsFull reports whether the query returns all variables.
func (q *CQ) IsFull() bool {
	if len(q.Free) == 0 {
		return true
	}
	all := q.Vars()
	if len(q.Free) != len(all) {
		return false
	}
	set := map[string]bool{}
	for _, v := range q.Free {
		set[v] = true
	}
	for _, v := range all {
		if !set[v] {
			return false
		}
	}
	return true
}

// FreeVars returns the output variables (all variables for a full query).
func (q *CQ) FreeVars() []string {
	if len(q.Free) == 0 {
		return q.Vars()
	}
	return q.Free
}

func (q *CQ) String() string {
	s := q.Name + "("
	for i, v := range q.FreeVars() {
		if i > 0 {
			s += ","
		}
		s += v
	}
	s += ") :- "
	for i, a := range q.Atoms {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s
}

// Intersect returns the shared variables of a and b in a's order.
func Intersect(a, b []string) []string {
	set := map[string]bool{}
	for _, v := range b {
		set[v] = true
	}
	var out []string
	for _, v := range a {
		if set[v] {
			out = append(out, v)
		}
	}
	return out
}

// subset reports a ⊆ b.
func subset(a, b map[string]bool) bool {
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// GYO runs the Graham/Yu–Ozsoyoglu reduction on a hypergraph given as one
// variable set per edge. It returns per-edge parent pointers forming a join
// tree (parent[root] = -1) and whether the hypergraph is alpha-acyclic.
// Disconnected hypergraphs (Cartesian products) are acyclic; their components
// are chained by the empty-set containment steps of the reduction.
func GYO(edges [][]string) (parent []int, acyclic bool) {
	n := len(edges)
	parent = make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	if n == 0 {
		return parent, true
	}
	eff := make([]map[string]bool, n)
	for i, e := range edges {
		eff[i] = map[string]bool{}
		for _, v := range e {
			eff[i][v] = true
		}
	}
	removed := make([]bool, n)
	remaining := n
	for remaining > 1 {
		changed := false
		// Remove isolated variables (appearing in exactly one remaining edge).
		count := map[string]int{}
		for i := range eff {
			if removed[i] {
				continue
			}
			for v := range eff[i] {
				count[v]++
			}
		}
		for i := range eff {
			if removed[i] {
				continue
			}
			for v := range eff[i] {
				if count[v] == 1 {
					delete(eff[i], v)
					changed = true
				}
			}
		}
		// Remove ears: an edge whose remaining variables are contained in
		// another remaining edge becomes that edge's child.
		for i := 0; i < n && remaining > 1; i++ {
			if removed[i] {
				continue
			}
			for j := 0; j < n; j++ {
				if i == j || removed[j] {
					continue
				}
				if subset(eff[i], eff[j]) {
					removed[i] = true
					parent[i] = j
					remaining--
					changed = true
					break
				}
			}
		}
		if !changed {
			return parent, false
		}
	}
	return parent, true
}

// IsAcyclic reports alpha-acyclicity of the query's hypergraph.
func IsAcyclic(q *CQ) bool {
	edges := make([][]string, len(q.Atoms))
	for i, a := range q.Atoms {
		edges[i] = a.Vars
	}
	_, ok := GYO(edges)
	return ok
}

// IsFreeConnex reports whether q is acyclic and free-connex: the hypergraph
// extended with a head hyperedge over the free variables is also acyclic
// (Section 8.1). Full acyclic queries are trivially free-connex.
func IsFreeConnex(q *CQ) bool {
	if !IsAcyclic(q) {
		return false
	}
	if q.IsFull() {
		return true
	}
	edges := make([][]string, 0, len(q.Atoms)+1)
	for _, a := range q.Atoms {
		edges = append(edges, a.Vars)
	}
	edges = append(edges, q.FreeVars())
	_, ok := GYO(edges)
	return ok
}

// JoinTree is a rooted join tree over the atoms of a full acyclic CQ.
type JoinTree struct {
	Q      *CQ
	Parent []int // per atom; -1 at root
	Root   int
	Order  []int // preorder serialization: parents before children
}

// BuildJoinTree runs GYO and roots the resulting tree. It fails on cyclic
// queries.
func BuildJoinTree(q *CQ) (*JoinTree, error) {
	edges := make([][]string, len(q.Atoms))
	for i, a := range q.Atoms {
		edges[i] = a.Vars
	}
	parent, ok := GYO(edges)
	if !ok {
		return nil, fmt.Errorf("query %s is cyclic: no join tree exists", q.Name)
	}
	t := &JoinTree{Q: q, Parent: parent, Root: rootOf(parent)}
	t.Order = preorder(parent, t.Root)
	return t, nil
}

func rootOf(parent []int) int {
	for i, p := range parent {
		if p == -1 {
			return i
		}
	}
	return -1
}

// preorder returns a serialization where every parent precedes its children,
// with children visited in index order for determinism.
func preorder(parent []int, root int) []int {
	n := len(parent)
	children := make([][]int, n)
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	order := make([]int, 0, n)
	var visit func(int)
	visit = func(u int) {
		order = append(order, u)
		cs := children[u]
		sort.Ints(cs)
		for _, c := range cs {
			visit(c)
		}
	}
	if root >= 0 {
		visit(root)
	}
	return order
}

// JoinVars returns the equi-join variables between atom c and its parent.
func (t *JoinTree) JoinVars(c int) []string {
	p := t.Parent[c]
	if p < 0 {
		return nil
	}
	return Intersect(t.Q.Atoms[c].Vars, t.Q.Atoms[p].Vars)
}

// Reroot returns a copy of t rooted at newRoot. Join trees are unrooted
// structures, so flipping parent pointers along the root path preserves the
// running-intersection property.
func (t *JoinTree) Reroot(newRoot int) *JoinTree {
	parent := append([]int(nil), t.Parent...)
	// Flip pointers on the path newRoot -> old root.
	prev := -1
	u := newRoot
	for u != -1 {
		next := parent[u]
		parent[u] = prev
		prev = u
		u = next
	}
	nt := &JoinTree{Q: t.Q, Parent: parent, Root: newRoot}
	nt.Order = preorder(parent, newRoot)
	return nt
}
