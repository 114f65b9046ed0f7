// Package decomp implements the simple-cycle decomposition of Section 5.3.1:
// an ℓ-cycle query is split by a heavy/light tuple partitioning (threshold
// n^(2/ℓ)) into ℓ "heavy" tree decompositions plus one "all-light" tree,
// whose outputs partition the cycle's output. Each tree is a path of
// materialized bags with schema-level weight lineage (every input relation
// is pinned to exactly one bag), ready to feed dpgraph.Build and the UT-DP
// union of package core. Total materialization cost is O(n^(2-2/ℓ)) —
// O(n^1.5) for 4-cycles, matching the submodular width bound.
package decomp

import (
	"fmt"
	"math"

	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
	"anyk/internal/query"
	"anyk/internal/relation"
)

// Tree is one acyclic member of the union: a path of bag stages in preorder.
type Tree[W any] struct {
	Name   string
	Inputs []dpgraph.StageInput[W]
}

// CycleShape describes a simple-cycle query detected by DetectCycle: atom i
// is R(Vars[i], Vars[(i+1)%ℓ]).
type CycleShape struct {
	Q     *query.CQ
	Rels  []string // relation name per cycle position
	Atoms []int    // atom index per cycle position
	Vars  []string // variable per cycle position
}

// DetectCycle checks that q is a simple ℓ-cycle of binary atoms (every
// variable shared by exactly two adjacent atoms) and returns its shape.
func DetectCycle(q *query.CQ) (*CycleShape, error) {
	l := len(q.Atoms)
	if l < 3 {
		return nil, fmt.Errorf("query %s: a simple cycle needs at least 3 atoms", q.Name)
	}
	occ := map[string][]int{}
	for i, a := range q.Atoms {
		if len(a.Vars) != 2 || a.Vars[0] == a.Vars[1] {
			return nil, fmt.Errorf("query %s: atom %s is not a binary edge", q.Name, a.Rel)
		}
		for _, v := range a.Vars {
			occ[v] = append(occ[v], i)
		}
	}
	if len(occ) != l {
		return nil, fmt.Errorf("query %s: %d variables for %d atoms; not a simple cycle", q.Name, len(occ), l)
	}
	for v, atoms := range occ {
		if len(atoms) != 2 {
			return nil, fmt.Errorf("query %s: variable %s appears in %d atoms", q.Name, v, len(atoms))
		}
	}
	// Walk the cycle starting at atom 0 in the direction of its second var.
	shape := &CycleShape{Q: q}
	at := 0
	v := q.Atoms[0].Vars[0]
	for range q.Atoms {
		shape.Atoms = append(shape.Atoms, at)
		shape.Rels = append(shape.Rels, q.Atoms[at].Rel)
		shape.Vars = append(shape.Vars, v)
		next := q.Atoms[at].Vars[1]
		if next == v {
			next = q.Atoms[at].Vars[0]
		}
		// the other atom containing next
		na := occ[next][0]
		if na == at {
			na = occ[next][1]
		}
		at, v = na, next
	}
	if at != 0 || v != q.Atoms[0].Vars[0] {
		return nil, fmt.Errorf("query %s: atoms do not form a single cycle", q.Name)
	}
	// Verify orientation: each atom must be (Vars[i], Vars[i+1]).
	for i, ai := range shape.Atoms {
		a := q.Atoms[ai]
		v0, v1 := shape.Vars[i], shape.Vars[(i+1)%l]
		if !(a.Vars[0] == v0 && a.Vars[1] == v1) && !(a.Vars[0] == v1 && a.Vars[1] == v0) {
			return nil, fmt.Errorf("query %s: atom %s breaks the cycle orientation", q.Name, a.Rel)
		}
	}
	return shape, nil
}

// part identifies which horizontal slice of a relation a partition uses.
type part int

const (
	full part = iota
	heavy
	light
)

// cycleRel is one cycle position's relation, oriented so column c0 holds
// Vars[i] and column c1 holds Vars[i+1], with per-tuple heaviness of the c0
// value precomputed. An atom without predicates borrows the relation's own
// value and weight blocks, and ids is nil (row r is the relation's row r); a
// filtered atom gathers its qualifying rows, and ids keeps their original
// row ids for Lift. byC0 files every row under its c0 value.
type cycleRel struct {
	c0, c1  []relation.Value
	weights []float64
	ids     []int
	isHeavy []bool
	byC0    *relation.Grouping
}

func (cr *cycleRel) size() int { return len(cr.weights) }

// id is row r's row id in the relation the atom reads.
func (cr *cycleRel) id(r int) int64 {
	if cr.ids == nil {
		return int64(r)
	}
	return int64(cr.ids[r])
}

// Decompose splits the cycle query's output into ℓ+1 disjoint trees. The
// atomStage function is not needed: weights are lifted with the cycle
// position as the stage index, matching the serialized positions the engine
// uses for acyclic queries.
func Decompose[W any](d dioid.Dioid[W], db *relation.DB, shape *CycleShape) ([]Tree[W], error) {
	l := len(shape.Rels)
	rels := make([]*cycleRel, l)
	n := 0
	for i, name := range shape.Rels {
		r := db.Relation(name)
		if r == nil {
			return nil, fmt.Errorf("relation %s not in database", name)
		}
		cr, err := orient(r, shape.Q.Atoms[shape.Atoms[i]], shape.Vars[i])
		if err != nil {
			return nil, err
		}
		// The heavy/light threshold is sized from the *filtered*
		// cardinalities: predicates shrink the instance the decomposition
		// actually runs on.
		n = max(n, cr.size())
		rels[i] = cr
	}
	threshold := math.Pow(float64(n), 2/float64(l))
	for _, cr := range rels {
		markHeavy(cr, threshold)
	}
	trees := make([]Tree[W], 0, l+1)
	for i := 0; i < l; i++ {
		trees = append(trees, heavyTree[W](d, rels, shape, i))
	}
	return append(trees, lightTree[W](d, rels, shape)), nil
}

func orient(r *relation.Relation, a query.Atom, firstVar string) (*cycleRel, error) {
	preds, err := a.ScanPreds(r)
	if err != nil {
		return nil, err
	}
	c0, c1 := a.VarCol(0), a.VarCol(1)
	if a.Vars[0] != firstVar {
		c0, c1 = c1, c0
	}
	// Qualifying row ids, ascending (nil = every row).
	ids := r.FilterScan(preds)
	cols := r.Gather([]int{c0, c1}, ids)
	cr := &cycleRel{c0: cols[0], c1: cols[1], weights: r.Weights, ids: ids}
	if ids != nil {
		cr.weights = make([]float64, len(ids))
		for i, s := range ids {
			cr.weights[i] = r.Weights[s]
		}
	}
	return cr, nil
}

// markHeavy files the rows by their c0 value and flags those whose value
// occurs at least threshold times (Section 5.3.1: "t.Ai occurs at least
// n^(2/ℓ) times in column Ri.Ai"): a window of byC0 is all heavy or all
// light.
func markHeavy(cr *cycleRel, threshold float64) {
	cr.byC0 = relation.NewGrouping(cr.size(), nil, cr.c0)
	cr.isHeavy = make([]bool, cr.size())
	for g := range int32(cr.byC0.Len()) {
		rows := cr.byC0.Window(g)
		if float64(len(rows)) >= threshold {
			for _, r := range rows {
				cr.isHeavy[r] = true
			}
		}
	}
}

// use reports whether row r of cycle relation cr participates in slice p.
func use(cr *cycleRel, r int, p part) bool {
	switch p {
	case heavy:
		return cr.isHeavy[r]
	case light:
		return !cr.isHeavy[r]
	}
	return true
}

// find returns the window of x (a grouping of every row of cr whose key
// starts with c0) for key, or -1 when there is none or its rows lie outside
// slice p. Heaviness belongs to the c0 value, so a window lies wholly inside
// a slice or wholly outside it.
func (cr *cycleRel) find(x *relation.Grouping, p part, key ...relation.Value) int32 {
	g := x.Find(key...)
	if g >= 0 && !use(cr, int(x.Window(g)[0]), p) {
		return -1
	}
	return g
}

// heavyVals lists the heavy c0 values in order of first appearance, the
// order of their windows in byC0: bag row order must be deterministic
// across compiles so that equal-weight results keep a stable tie order.
func (cr *cycleRel) heavyVals() []relation.Value {
	var vals []relation.Value
	for g := range int32(cr.byC0.Len()) {
		if r := cr.byC0.Window(g)[0]; cr.isHeavy[r] {
			vals = append(vals, cr.c0[r])
		}
	}
	return vals
}

// partOf returns the slice of cycle position j used by heavy partition i:
// positions before i are light, position i is heavy, later positions full
// (database partition T_{i+1} of Section 5.3.1).
func partOf(i, j int) part {
	switch {
	case j == i:
		return heavy
	case j < i:
		return light
	}
	return full
}

// heavyTree materializes the heavy decomposition for partition i: a path of
// ℓ-2 bags, all containing the heavy variable x_i. Bag 0 joins R_i ⋈ R_{i+1};
// middle bag j is heavyValues(x_i) × R_{i+j+1}; the last bag joins
// R_{i+ℓ-2} ⋈ R_{i+ℓ-1} (which closes the cycle back to x_i).
func heavyTree[W any](d dioid.Dioid[W], rels []*cycleRel, shape *CycleShape, i int) Tree[W] {
	l := len(rels)
	at := func(j int) int { return (i + j) % l }
	v := func(j int) string { return shape.Vars[at(j)] }
	lift := func(j int, row int32) W {
		cr := rels[at(j)]
		return d.Lift(cr.weights[row], shape.Atoms[at(j)], cr.id(int(row)))
	}
	cri := rels[i]
	tr := Tree[W]{Name: fmt.Sprintf("T%d[heavy %s]", i+1, v(0))}
	if l == 3 {
		// Degenerate: one bag joining all three relations.
		r1, r2 := rels[at(1)], rels[at(2)]
		p1, p2 := partOf(i, at(1)), partOf(i, at(2))
		idx2 := relation.NewGrouping(r2.size(), nil, r2.c0, r2.c1)
		b := newBag[W]("B0", []string{v(0), v(1), v(2)}, -1, cri.size())
		tr.Inputs = []dpgraph.StageInput[W]{b.run(func() {
			for r0 := range int32(cri.size()) {
				if !cri.isHeavy[r0] {
					continue
				}
				for _, a := range r1.byC0.Window(b.probe(func() int32 { return r1.find(r1.byC0, p1, cri.c1[r0]) })) {
					rows := idx2.Window(b.probe(func() int32 { return r2.find(idx2, p2, r1.c1[a], cri.c0[r0]) }))
					if !b.fill(len(rows)) {
						continue
					}
					for _, c := range rows {
						b.put(d.Times(lift(0, r0), d.Times(lift(1, a), lift(2, c))), cri.c0[r0], cri.c1[r0], r1.c1[a])
					}
				}
			}
		})}
		return tr
	}
	heavyVals := cri.heavyVals()
	nbags := l - 2
	tr.Inputs = make([]dpgraph.StageInput[W], nbags)
	for bi := range nbags {
		vars := []string{v(0), v(bi + 1), v(bi + 2)}
		switch bi {
		case 0:
			// R_i ⋈ R_{i+1} restricted to heavy x_i: the heavy rows of R_i
			// under their c1, probed by every R_{i+1} tuple.
			r1, p1 := rels[at(1)], partOf(i, at(1))
			idx0 := heavyIndex(cri, heavy, cri.c0, cri.c1, cri)
			b := newBag[W]("B0", vars, -1, r1.size())
			tr.Inputs[bi] = b.run(func() {
				for a := range int32(r1.size()) {
					if !use(r1, int(a), p1) {
						continue
					}
					rows := idx0.Window(b.probe(func() int32 { return idx0.Find(r1.c0[a]) }))
					if !b.fill(len(rows)) {
						continue
					}
					for _, r0 := range rows {
						b.put(d.Times(lift(0, r0), lift(1, a)), cri.c0[r0], r1.c0[a], r1.c1[a])
					}
				}
			})
		case nbags - 1:
			// R_{i+ℓ-2} ⋈ R_{i+ℓ-1}, closing back to the heavy variable: the
			// rows of R_{i+ℓ-1} ending in a heavy value, under their c0.
			rm, pm := rels[at(l-2)], partOf(i, at(l-2))
			rl := rels[at(l-1)]
			idxLast := heavyIndex(rl, partOf(i, at(l-1)), rl.c1, rl.c0, cri)
			b := newBag[W](fmt.Sprintf("B%d", bi), vars, bi-1, rm.size())
			tr.Inputs[bi] = b.run(func() {
				for a := range int32(rm.size()) {
					if !use(rm, int(a), pm) {
						continue
					}
					rows := idxLast.Window(b.probe(func() int32 { return idxLast.Find(rm.c1[a]) }))
					if !b.fill(len(rows)) {
						continue
					}
					for _, r := range rows {
						b.put(d.Times(lift(l-2, a), lift(l-1, r)), rl.c1[r], rm.c0[a], rm.c1[a])
					}
				}
			})
		default:
			// Cross product of heavy values with R_{i+b+1}.
			rj, pj := rels[at(bi+1)], partOf(i, at(bi+1))
			b := newBag[W](fmt.Sprintf("B%d", bi), vars, bi-1, 0)
			tr.Inputs[bi] = b.run(func() {
				for a := range int32(rj.size()) {
					if !use(rj, int(a), pj) || !b.fill(len(heavyVals)) {
						continue
					}
					for _, h := range heavyVals {
						b.put(lift(bi+1, a), h, rj.c0[a], rj.c1[a])
					}
				}
			})
		}
	}
	return tr
}

// heavyIndex files the rows r of cr in slice p whose val[r] is a heavy c0
// value of hr (a heavy value of the tree's x_i) under key[r], ordered by the
// rank of val[r] among hr's heavy values and then by row. That is the order
// in which a probe pairing key[r] with every heavy value in turn meets them.
func heavyIndex(cr *cycleRel, p part, val, key []relation.Value, hr *cycleRel) *relation.Grouping {
	rank := make([]int32, cr.size())
	for r := range rank {
		rank[r] = -1
		if use(cr, r, p) {
			rank[r] = hr.find(hr.byC0, heavy, val[r])
		}
	}
	_, rows := relation.CSR(rank, hr.byC0.Len(), nil)
	return relation.NewGrouping(cr.size(), rows, key)
}

// lightTree materializes the all-light decomposition: two bags obtained by
// chain joins over the light slices, split at position m = ⌈ℓ/2⌉.
func lightTree[W any](d dioid.Dioid[W], rels []*cycleRel, shape *CycleShape) Tree[W] {
	l := len(rels)
	m := (l + 1) / 2
	tr := Tree[W]{Name: fmt.Sprintf("T%d[all-light]", l+1)}
	b1 := chainBag[W](d, rels, shape, 0, m)   // covers R_0..R_{m-1}: vars x_0..x_m
	b2 := chainBag[W](d, rels, shape, m, l-m) // covers R_m..R_{l-1}: vars x_m..x_{l-1},x_0
	b1.Name, b1.Parent = "B0", -1
	b2.Name, b2.Parent = "B1", 0
	tr.Inputs = []dpgraph.StageInput[W]{b1, b2}
	return tr
}

// chainBag joins count consecutive light relations starting at cycle
// position start, probing each relation's byC0 with the previous one's c1,
// producing rows over the count+1 variables x_start..x_{start+count}.
func chainBag[W any](d dioid.Dioid[W], rels []*cycleRel, shape *CycleShape, start, count int) dpgraph.StageInput[W] {
	l := len(rels)
	at := func(j int) int { return (start + j) % l }
	vars := make([]string, count+1)
	for j := 0; j <= count; j++ {
		vars[j] = shape.Vars[at(j)]
	}
	first := rels[at(0)]
	b := newBag[W]("", vars, 0, first.size())
	vals := make([]relation.Value, count+1)
	// step extends the chain, whose weight so far is w, by row r of its
	// relation j.
	var step func(j int, r int32, w W)
	step = func(j int, r int32, w W) {
		cr := rels[at(j)]
		vals[j+1] = cr.c1[r]
		if b.filling {
			w = d.Times(w, d.Lift(cr.weights[r], shape.Atoms[at(j)], cr.id(int(r))))
		}
		if j+1 == count {
			if b.fill(1) {
				b.put(w, vals...)
			}
			return
		}
		next := rels[at(j+1)]
		rows := next.byC0.Window(b.probe(func() int32 { return next.find(next.byC0, light, vals[j+1]) }))
		if j+2 == count && !b.fill(len(rows)) {
			return
		}
		for _, r := range rows {
			step(j+1, r, w)
		}
	}
	return b.run(func() {
		for r := range int32(first.size()) {
			if !first.isHeavy[r] {
				vals[0] = first.c0[r]
				step(0, r, d.One())
			}
		}
	})
}

// bag builds one stage input in two passes over the same join. The counting
// pass measures the rows and records the window every probe matched; the
// filling pass allocates the columns at their exact length, replays the
// recorded windows instead of probing again, and writes the rows.
type bag[W any] struct {
	in      dpgraph.StageInput[W]
	filling bool
	n       int     // rows counted, then rows written
	wins    []int32 // every probe's window, in probe order
	next    int     // the next window to replay
}

// newBag starts a bag; probes sizes the window record (it grows past that).
func newBag[W any](name string, vars []string, parent, probes int) *bag[W] {
	return &bag[W]{
		in:   dpgraph.StageInput[W]{Name: name, Vars: vars, Parent: parent},
		wins: make([]int32, 0, probes),
	}
}

// run calls join to count the rows, allocates the columns (one block) and
// the weights, and calls join again to fill them.
func (b *bag[W]) run(join func()) dpgraph.StageInput[W] {
	join()
	n, k := b.n, len(b.in.Vars)
	flat := make([]relation.Value, n*k)
	b.in.Cols = make([][]relation.Value, k)
	for c := range b.in.Cols {
		b.in.Cols[c] = flat[c*n : (c+1)*n : (c+1)*n]
	}
	b.in.Weights = make([]W, n)
	b.filling, b.n = true, 0
	join()
	return b.in
}

// probe returns the window find matches: found and recorded when counting,
// replayed when filling.
func (b *bag[W]) probe(find func() int32) int32 {
	if b.filling {
		b.next++
		return b.wins[b.next-1]
	}
	g := find()
	b.wins = append(b.wins, g)
	return g
}

// fill reports whether the caller is to write its next rows (rows of them):
// the filling pass writes them, the counting pass only adds them up.
func (b *bag[W]) fill(rows int) bool {
	if !b.filling {
		b.n += rows
	}
	return b.filling
}

// put writes the next row.
func (b *bag[W]) put(w W, vals ...relation.Value) {
	for c, v := range vals {
		b.in.Cols[c][b.n] = v
	}
	b.in.Weights[b.n] = w
	b.n++
}
