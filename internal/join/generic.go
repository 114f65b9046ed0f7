// Package join implements the batch join algorithms of the paper: the
// worst-case-optimal Generic-Join / NPRR algorithm (Section 9.1.1), which
// materializes GHD bags, and the Yannakakis algorithm for acyclic queries.
// Both are independent of the DP-graph machinery, so the engine's tests use
// them as oracles, and the benchmark times them as the Batch baseline.
package join

import (
	"fmt"
	"sort"
	"strconv"

	"anyk/internal/query"
	"anyk/internal/relation"
)

// Result is one output tuple of a batch join: values over the query's
// variables in first-occurrence order plus the summed witness weight.
type Result struct {
	Vals   []relation.Value
	Weight float64
}

// SortResults orders results by ascending weight (the sort phase of Batch).
func SortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Weight < rs[j].Weight })
}

// trie is a hash trie over an atom's tuples, keyed by the atom's variables
// in global variable order. Leaves (depth == arity) carry the tuples
// collapsing to that leaf (bag semantics): their weights and original row
// indices.
type trie struct {
	depth    int
	children map[relation.Value]*trie
	tuples   []leafTuple
}

// leafTuple is one input tuple at a trie leaf.
type leafTuple struct {
	w   float64
	row int
}

func newTrie(depth int) *trie { return &trie{depth: depth, children: map[relation.Value]*trie{}} }

// atomTrie returns the hash trie of r's rows keyed by the given column
// order, cached on the relation itself: tries are read-only after
// construction, so repeated joins over the same relation — self-join query
// atoms, GHD bags sharing a cover relation, or back-to-back sessions on one
// dataset — reuse one build. The memo is invalidated when the relation
// mutates (see relation.Memo).
func atomTrie(r *relation.Relation, order []int, preds []relation.ScanPred) *trie {
	sig := "join.trie"
	if ps := relation.PredSig(preds); ps != "" {
		sig += ":" + ps
	}
	for _, c := range order {
		sig += ":" + strconv.Itoa(c)
	}
	return r.Memo(sig, func() any {
		root := newTrie(0)
		buf := make([]relation.Value, len(order))
		ids := r.FilterScan(preds)
		n := r.Size()
		if ids != nil {
			n = len(ids)
		}
		for i := 0; i < n; i++ {
			rIdx := i
			if ids != nil {
				rIdx = ids[i]
			}
			r.ProjectInto(buf, rIdx, order)
			root.insert(buf, r.Weights[rIdx], rIdx)
		}
		return root
	}).(*trie)
}

func (t *trie) insert(vals []relation.Value, w float64, row int) {
	node := t
	for _, v := range vals {
		c := node.children[v]
		if c == nil {
			c = newTrie(node.depth + 1)
			node.children[v] = c
		}
		node = c
	}
	node.tuples = append(node.tuples, leafTuple{w: w, row: row})
}

type gjAtom struct {
	root *trie
	// nextVarAt[v] = d+1 when global variable v is the (d+1)-th variable of
	// this atom in global order; 0 when absent.
	nextVarAt []int
	arity     int
}

// Witness identifies the input tuple of one atom that witnesses an output
// row: the atom's index in the query, the tuple's row index in the atom's
// relation, and its weight.
type Witness struct {
	Atom int
	Row  int
	W    float64
}

// GenericJoin evaluates a full CQ with the worst-case-optimal generic join
// (NPRR / Generic-Join of Ngo et al.): variables are bound one at a time in
// global order; at each step the atom with the fewest continuations leads
// and all other atoms containing the variable are probed by hash. Weights of
// witnesses are summed (tropical ⊗); duplicates from bag semantics are
// expanded.
func GenericJoin(db *relation.DB, q *query.CQ) ([]Result, error) {
	var out []Result
	err := GenericJoinWitness(db, q, func(vals []relation.Value, wit []Witness) {
		w := 0.0
		for _, x := range wit {
			w += x.W
		}
		out = append(out, Result{Vals: append([]relation.Value(nil), vals...), Weight: w})
	})
	return out, err
}

// GenericJoinWitness runs the same worst-case-optimal join but streams every
// output row together with one Witness per atom (wit[i] witnesses
// q.Atoms[i]); duplicate tuples yield one emit per witness combination, just
// as GenericJoin expands duplicate weights. Both slices are reused between
// calls — the callback must copy what it keeps. The GHD planner's bag
// materialization is built on this hook.
func GenericJoinWitness(db *relation.DB, q *query.CQ, emit func(vals []relation.Value, wit []Witness)) error {
	vars := q.Vars()
	varPos := map[string]int{}
	for i, v := range vars {
		varPos[v] = i
	}
	atoms := make([]gjAtom, len(q.Atoms))
	for i, a := range q.Atoms {
		r := db.Relation(a.Rel)
		if r == nil {
			return fmt.Errorf("relation %s not found", a.Rel)
		}
		// order holds the atom's variable *indices* sorted by global variable
		// order; trieCols maps them onto relation columns (distinct from the
		// indices once constants, `_`, or repeats shift the layout).
		order := make([]int, len(a.Vars))
		for j := range order {
			order[j] = j
		}
		sort.Slice(order, func(x, y int) bool { return varPos[a.Vars[order[x]]] < varPos[a.Vars[order[y]]] })
		trieCols := make([]int, len(order))
		for d, vi := range order {
			trieCols[d] = a.VarCol(vi)
		}
		preds, err := a.ScanPreds(r)
		if err != nil {
			return err
		}
		atoms[i] = gjAtom{root: atomTrie(r, trieCols, preds), nextVarAt: make([]int, len(vars)), arity: len(a.Vars)}
		for d, vi := range order {
			atoms[i].nextVarAt[varPos[a.Vars[vi]]] = d + 1
		}
	}
	nodes := make([]*trie, len(atoms))
	for i := range atoms {
		nodes[i] = atoms[i].root
	}
	assignment := make([]relation.Value, len(vars))
	wit := make([]Witness, len(atoms))
	var rec func(v int)
	rec = func(v int) {
		if v == len(vars) {
			emit(assignment, wit)
			return
		}
		var active []int
		for i := range atoms {
			if atoms[i].nextVarAt[v] == nodes[i].depth+1 {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			rec(v + 1) // unconstrained variable (disconnected queries)
			return
		}
		lead := active[0]
		for _, i := range active[1:] {
			if len(nodes[i].children) < len(nodes[lead].children) {
				lead = i
			}
		}
		saved := make([]*trie, len(active))
		for ai, i := range active {
			saved[ai] = nodes[i]
		}
		for val, leadChild := range nodes[lead].children {
			ok := true
			for _, i := range active {
				if i == lead {
					continue
				}
				if nodes[i].children[val] == nil {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			var completed []int // atom indices that bound their last variable
			for _, i := range active {
				if i == lead {
					nodes[i] = leadChild
				} else {
					nodes[i] = nodes[i].children[val]
				}
				if nodes[i].depth == atoms[i].arity {
					completed = append(completed, i)
				}
			}
			assignment[v] = val
			expandWitnesses(nodes, wit, completed, 0, func() { rec(v + 1) })
			for ai, i := range active {
				nodes[i] = saved[ai]
			}
		}
	}
	rec(0)
	return nil
}

// expandWitnesses enumerates the Cartesian product of the completed atoms'
// duplicate-tuple lists, recording one witness per atom.
func expandWitnesses(nodes []*trie, wit []Witness, completed []int, ci int, f func()) {
	if ci == len(completed) {
		f()
		return
	}
	ai := completed[ci]
	for _, t := range nodes[ai].tuples {
		wit[ai] = Witness{Atom: ai, Row: t.row, W: t.w}
		expandWitnesses(nodes, wit, completed, ci+1, f)
	}
}
