package hypertree

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
	"anyk/internal/join"
	"anyk/internal/query"
	"anyk/internal/relation"
)

// Materialize evaluates every bag of the plan against db and lowers the join
// tree to dpgraph stage inputs (in the plan's preorder, parents first),
// ready for dpgraph.Build. Bag sub-joins run through the
// worst-case-optimal generic join; each bag's rows carry the ⊗-combined
// lifted weights of exactly its assigned atoms, with the original atom index
// as the lift stage — the same serialization the acyclic engine uses, so
// lexicographic and tie-breaking dioids see identical stage layouts.
func Materialize[W any](d dioid.Dioid[W], db *relation.DB, p *Plan) ([]dpgraph.StageInput[W], error) {
	inputs := make([]dpgraph.StageInput[W], len(p.Bags))
	for bi, bag := range p.Bags {
		in, err := materializeBag[W](d, db, p.Q, bi, bag)
		if err != nil {
			return nil, err
		}
		inputs[bi] = in
	}
	return inputs, nil
}

// materializeBag computes the bag's intermediate relation: the projection of
// the join of its cover and assigned atoms onto the bag variables. Assigned
// atoms join with bag semantics (duplicate input tuples multiply bag rows)
// and contribute their lifted weights; cover-only atoms are deduplicated and
// act as weightless existential filters, so projecting away their private
// variables neither multiplies rows nor double-counts weight.
func materializeBag[W any](d dioid.Dioid[W], db *relation.DB, q *query.CQ, bagIdx int, bag Bag) (dpgraph.StageInput[W], error) {
	in := dpgraph.StageInput[W]{
		Name:   fmt.Sprintf("B%d[%s]", bagIdx, strings.Join(bag.Vars, ",")),
		Vars:   bag.Vars,
		Parent: bag.Parent,
	}
	assigned := map[int]bool{}
	for _, ai := range bag.Assigned {
		assigned[ai] = true
	}
	atomIdx := append([]int(nil), bag.Cover...)
	for _, ai := range bag.Assigned {
		if !slices.Contains(atomIdx, ai) {
			atomIdx = append(atomIdx, ai)
		}
	}
	sort.Ints(atomIdx)
	subDB := relation.NewDB()
	subAtoms := make([]query.Atom, len(atomIdx))
	for k, ai := range atomIdx {
		a := q.Atoms[ai]
		rel := db.Relation(a.Rel)
		if rel == nil {
			return in, fmt.Errorf("relation %s not found", a.Rel)
		}
		// Unique per-atom names keep self-joins and the assigned/verification
		// split apart inside the sub-database.
		name := fmt.Sprintf("a%d", ai)
		if assigned[ai] {
			// Aliased relations share the original's dictionary and memo, so
			// the atom's predicates push down into the generic-join tries.
			subDB.Alias(name, rel)
			subAtoms[k] = query.Atom{Rel: name, Vars: a.Vars, Cols: a.Cols, Preds: a.Preds}
		} else {
			// Verification-only atoms deduplicate *after* filtering; the
			// sub-atom keeps its column mapping but drops the predicates,
			// already applied to the copy.
			preds, err := a.ScanPreds(rel)
			if err != nil {
				return in, err
			}
			subDB.AddRelation(distinctRelation(name, rel, preds))
			subAtoms[k] = query.Atom{Rel: name, Vars: a.Vars, Cols: a.Cols}
		}
	}
	subQ := query.NewCQ(in.Name, nil, subAtoms...)
	subVars := subQ.Vars()
	cols := make([]int, len(bag.Vars))
	for i, v := range bag.Vars {
		cols[i] = -1
		for j, sv := range subVars {
			if sv == v {
				cols[i] = j
				break
			}
		}
		if cols[i] < 0 {
			return in, fmt.Errorf("bag %d: variable %s not bound by its cover", bagIdx, v)
		}
	}
	// Assigned sub-atom positions in ascending original-atom order, so the
	// ⊗-fold over lifted weights is deterministic.
	var assignedPos []int
	for k, ai := range atomIdx {
		if assigned[ai] {
			assignedPos = append(assignedPos, k)
		}
	}
	// Dedup key: projected row plus the assigned witness rows. Different
	// verification-atom extensions of the same projected row collapse;
	// distinct assigned witnesses survive as bag-semantics duplicates. When
	// the sub-join binds no variable outside the bag, every emit is already
	// unique (the values pin the deduplicated verification rows), so the map
	// — one entry per bag row, the dominant memory cost on wide bags — is
	// skipped.
	needDedup := len(subVars) > len(bag.Vars)
	keyBuf := make([]relation.Value, len(cols)+len(assignedPos))
	var seen map[relation.Key]bool
	if needDedup {
		seen = map[relation.Key]bool{}
	}
	err := join.GenericJoinWitness(subDB, subQ, func(vals []relation.Value, wit []join.Witness) {
		for i, c := range cols {
			keyBuf[i] = vals[c]
		}
		if needDedup {
			for i, k := range assignedPos {
				keyBuf[len(cols)+i] = relation.Value(wit[k].Row)
			}
			key := relation.MakeKey(keyBuf)
			if seen[key] {
				return
			}
			seen[key] = true
		}
		w := d.One()
		for _, k := range assignedPos {
			w = d.Times(w, d.Lift(wit[k].W, atomIdx[k], int64(wit[k].Row)))
		}
		in.Rows = append(in.Rows, append([]relation.Value(nil), keyBuf[:len(cols)]...))
		in.Weights = append(in.Weights, w)
	})
	if err != nil {
		return in, err
	}
	sortStage(d, &in)
	return in, nil
}

// sortStage orders a bag's rows by value, then by weight: the generic join
// iterates hash tries, so emit order varies between runs, and without a
// canonical layout tied-weight results would enumerate in a different order
// on every process start (the acyclic and simple-cycle routes are naturally
// deterministic).
func sortStage[W any](d dioid.Dioid[W], in *dpgraph.StageInput[W]) {
	ord := make([]int, len(in.Rows))
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(x, y int) bool {
		a, b := in.Rows[ord[x]], in.Rows[ord[y]]
		for i := range a {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return d.Less(in.Weights[ord[x]], in.Weights[ord[y]])
	})
	rows := make([][]relation.Value, len(ord))
	weights := make([]W, len(ord))
	for i, o := range ord {
		rows[i] = in.Rows[o]
		weights[i] = in.Weights[o]
	}
	in.Rows, in.Weights = rows, weights
}

// distinctRelation copies the rows of r satisfying preds, keeping each
// distinct row once with weight 0: the set-semantics shape verification-only
// atoms take inside a bag join. The first row of each window of a transient
// grouping by every column is that row's first occurrence.
func distinctRelation(name string, r *relation.Relation, preds []relation.ScanPred) *relation.Relation {
	out := relation.New(name, r.Attrs...)
	cols := make([]int, r.Arity())
	for c := range cols {
		cols[c] = c
	}
	ids := r.FilterScan(preds)
	n := r.Size()
	if ids != nil {
		n = len(ids)
	}
	blocks := r.Gather(cols, ids)
	x := relation.NewGrouping(n, nil, blocks...)
	row := make([]relation.Value, len(cols))
	for g := range int32(x.Len()) {
		first := x.Window(g)[0]
		for c, block := range blocks {
			row[c] = block[first]
		}
		out.Add(0, row...)
	}
	return out
}
