package join

import (
	"fmt"

	"anyk/internal/query"
	"anyk/internal/relation"
)

// Yannakakis evaluates a full acyclic CQ with the classic three-phase
// Yannakakis algorithm: bottom-up semi-join reduction along a join tree,
// top-down reduction, then join. Runs in O(n + |out|) data complexity.
func Yannakakis(db *relation.DB, q *query.CQ) ([]Result, error) {
	t, err := query.BuildJoinTree(q)
	if err != nil {
		return nil, err
	}
	vars := q.Vars()
	varPos := map[string]int{}
	for i, v := range vars {
		varPos[v] = i
	}
	n := len(q.Atoms)
	type node struct {
		rel     *relation.Relation
		keep    []bool
		joinC   []int // columns joining with parent
		parentC []int // parent columns for the same vars
	}
	nodes := make([]*node, n)
	for i, a := range q.Atoms {
		r := db.Relation(a.Rel)
		if r == nil {
			return nil, fmt.Errorf("relation %s not found", a.Rel)
		}
		preds, err := a.ScanPreds(r)
		if err != nil {
			return nil, err
		}
		nd := &node{rel: r, keep: make([]bool, r.Size())}
		// Predicates seed the semi-join reduction: non-qualifying rows start
		// dead, exactly as if the relation had been pre-filtered.
		for j := range nd.keep {
			nd.keep[j] = r.MatchRow(j, preds)
		}
		if p := t.Parent[i]; p >= 0 {
			jv := t.JoinVars(i)
			nd.joinC = atomCols(a, jv)
			nd.parentC = atomCols(q.Atoms[p], jv)
		}
		nodes[i] = nd
	}
	keySet := func(nd *node, cols []int) map[relation.Key]bool {
		s := make(map[relation.Key]bool, nd.rel.Size())
		buf := make([]relation.Value, len(cols))
		for j := range nd.keep {
			if !nd.keep[j] {
				continue
			}
			s[rowKey(nd.rel, j, cols, buf)] = true
		}
		return s
	}
	// Bottom-up semi-joins (reverse preorder).
	for oi := len(t.Order) - 1; oi >= 0; oi-- {
		i := t.Order[oi]
		p := t.Parent[i]
		if p < 0 {
			continue
		}
		have := keySet(nodes[i], nodes[i].joinC)
		pn := nodes[p]
		buf := make([]relation.Value, len(nodes[i].parentC))
		for j := range pn.keep {
			if pn.keep[j] && !have[rowKey(pn.rel, j, nodes[i].parentC, buf)] {
				pn.keep[j] = false
			}
		}
	}
	// Top-down semi-joins (preorder).
	for _, i := range t.Order {
		p := t.Parent[i]
		if p < 0 {
			continue
		}
		have := keySet(nodes[p], nodes[i].parentC)
		nd := nodes[i]
		buf := make([]relation.Value, len(nd.joinC))
		for j := range nd.keep {
			if nd.keep[j] && !have[rowKey(nd.rel, j, nd.joinC, buf)] {
				nd.keep[j] = false
			}
		}
	}
	// Join phase: backtracking along the preorder with hash indexes.
	idx := make([]map[relation.Key][]int, n)
	for _, i := range t.Order {
		if t.Parent[i] < 0 {
			continue
		}
		nd := nodes[i]
		m := make(map[relation.Key][]int, nd.rel.Size())
		buf := make([]relation.Value, len(nd.joinC))
		for j := range nd.keep {
			if nd.keep[j] {
				k := rowKey(nd.rel, j, nd.joinC, buf)
				m[k] = append(m[k], j)
			}
		}
		idx[i] = m
	}
	assignment := make([]relation.Value, len(vars))
	chosen := make([]int, n)
	keyBuf := make([]relation.Value, len(vars))
	var out []Result
	var rec func(oi int, w float64)
	rec = func(oi int, w float64) {
		if oi == len(t.Order) {
			out = append(out, Result{Vals: append([]relation.Value(nil), assignment...), Weight: w})
			return
		}
		i := t.Order[oi]
		nd := nodes[i]
		var cands []int
		if p := t.Parent[i]; p < 0 {
			for j := range nd.keep {
				if nd.keep[j] {
					cands = append(cands, j)
				}
			}
		} else {
			p := t.Parent[i]
			cands = idx[i][rowKey(nodes[p].rel, chosen[p], nd.parentC, keyBuf)]
		}
		for _, j := range cands {
			chosen[i] = j
			for c, v := range q.Atoms[i].Vars {
				assignment[varPos[v]] = nd.rel.At(j, q.Atoms[i].VarCol(c))
			}
			rec(oi+1, w+nd.rel.Weights[j])
		}
	}
	rec(0, 0)
	return out, nil
}

// atomCols returns the relation columns of a bound to the wanted variables.
func atomCols(a query.Atom, want []string) []int {
	cols := make([]int, 0, len(want))
	for _, w := range want {
		for i, v := range a.Vars {
			if v == w {
				cols = append(cols, a.VarCol(i))
				break
			}
		}
	}
	return cols
}

// rowKey encodes the projection of r's row onto cols as a map key, using the
// single-column fast path when possible and a caller-owned scratch buffer
// (len(cols) capacity) otherwise.
func rowKey(r *relation.Relation, row int, cols []int, buf []relation.Value) relation.Key {
	if len(cols) == 1 {
		return relation.Key1(r.At(row, cols[0]))
	}
	return relation.MakeKey(r.ProjectInto(buf, row, cols))
}
