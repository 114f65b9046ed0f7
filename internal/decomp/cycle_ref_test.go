package decomp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"anyk/internal/dataset"
	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
	"anyk/internal/query"
	"anyk/internal/relation"
)

// The cycle decomposition as it stood before bags were emitted as columns
// (per-row slices, boxed-map indexes and a map-based degree count) is kept
// below verbatim, its identifiers prefixed by ref, as refDecompose.
// TestDecomposeMatchesRef and FuzzDecomposeMatchesRef pin Decompose to it:
// the same trees and stages, the same rows in the same order, the same
// weights. Row order within a bag is load-bearing, since it fixes the tie
// order of the ranked stream.

// cycleText renders an ℓ-cycle over R1..Rℓ: atom i binds (x_i, x_{i+1}),
// written reversed when bit i of flip is set, with preds[i] after a bar when
// it is not empty.
func cycleText(l int, flip uint, preds []string) string {
	atoms := make([]string, l)
	for i := range atoms {
		a, b := fmt.Sprintf("x%d", i+1), fmt.Sprintf("x%d", (i+1)%l+1)
		if flip&(1<<i) != 0 {
			a, b = b, a
		}
		atoms[i] = fmt.Sprintf("R%d(%s,%s", i+1, a, b)
		if preds != nil && preds[i] != "" {
			atoms[i] += " | " + preds[i]
		}
		atoms[i] += ")"
	}
	return "Q(*) :- " + strings.Join(atoms, ", ")
}

// randomPreds draws a predicate for about half of the ℓ atoms: one of the
// atom's variables compared against a constant in [0, dom].
func randomPreds(r *rand.Rand, l, dom int) []string {
	ops := []string{"<", "<=", ">", ">=", "!=", "="}
	preds := make([]string, l)
	for i := range preds {
		if r.Intn(2) == 0 {
			preds[i] = fmt.Sprintf("x%d %s %d", (i+r.Intn(2))%l+1, ops[r.Intn(len(ops))], r.Intn(dom+1))
		}
	}
	return preds
}

// matchRef decomposes the query text over db with Decompose and with
// refDecompose, under Tropical and under Tie (whose Lift reads the row id),
// and fails on the first difference.
func matchRef(t testing.TB, db *relation.DB, text string) {
	t.Helper()
	q, err := query.Parse(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	shape, err := DetectCycle(q)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	compareTrees[float64](t, text, dioid.Tropical{}, db, shape)
	compareTrees[dioid.TieWeight[float64]](t, text, dioid.NewTie[float64](dioid.Tropical{}, len(q.Atoms)), db, shape)
}

func compareTrees[W any](t testing.TB, text string, d dioid.Dioid[W], db *relation.DB, shape *CycleShape) {
	t.Helper()
	got, err := Decompose[W](d, db, shape)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	want, err := refDecompose[W](d, db, shape)
	if err != nil {
		t.Fatalf("%s: reference: %v", text, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d trees, reference %d", text, len(got), len(want))
	}
	for i, tr := range got {
		ref := want[i]
		if tr.Name != ref.Name || len(tr.Inputs) != len(ref.Inputs) {
			t.Fatalf("%s: tree %d is %s with %d stages, reference %s with %d", text, i, tr.Name, len(tr.Inputs), ref.Name, len(ref.Inputs))
		}
		for s, in := range tr.Inputs {
			if err := sameStage(in, ref.Inputs[s]); err != nil {
				t.Fatalf("%s: tree %s stage %d: %v", text, tr.Name, s, err)
			}
		}
	}
}

// sameStage compares a columnar stage input with a row-shaped reference:
// name, variables, parent, then every row's values and weight in order.
func sameStage[W any](in, ref dpgraph.StageInput[W]) error {
	switch {
	case in.Name != ref.Name || !slices.Equal(in.Vars, ref.Vars) || in.Parent != ref.Parent || in.Prune != ref.Prune:
		return fmt.Errorf("%s%v parent %d, reference %s%v parent %d", in.Name, in.Vars, in.Parent, ref.Name, ref.Vars, ref.Parent)
	case in.Rows != nil:
		return fmt.Errorf("rows emitted as Rows")
	case len(in.Weights) != len(ref.Weights) || len(ref.Rows) != len(ref.Weights):
		return fmt.Errorf("%d rows, reference %d", len(in.Weights), len(ref.Weights))
	case len(in.Cols) != len(in.Vars):
		return fmt.Errorf("%d columns for %d variables", len(in.Cols), len(in.Vars))
	}
	for c, col := range in.Cols {
		if len(col) != len(in.Weights) {
			return fmt.Errorf("column %d has %d values for %d weights", c, len(col), len(in.Weights))
		}
	}
	for r, row := range ref.Rows {
		for c, v := range row {
			if in.Cols[c][r] != v {
				return fmt.Errorf("row %d column %d is %d, reference %d", r, c, in.Cols[c][r], v)
			}
		}
		if !reflect.DeepEqual(in.Weights[r], ref.Weights[r]) {
			return fmt.Errorf("row %d weight %v, reference %v", r, in.Weights[r], ref.Weights[r])
		}
	}
	return nil
}

func TestDecomposeMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for _, l := range []int{3, 4, 5, 6} {
		rows := 120
		if l >= 5 {
			rows = 40 // bags grow as n^(ℓ/2) on the light tree
		}
		powerLaw := dataset.EdgesToDB(dataset.PowerLawGraph(rows, 3, int64(l)), l)
		for _, tc := range []struct {
			name string
			db   *relation.DB
			dom  int
		}{
			{"random-sparse", randomCycleDB(r, l, rows, rows/4), rows / 4},
			{"random-dense", randomCycleDB(r, l, rows, 4), 4},
			{"worstcase", dataset.WorstCaseCycle(l, rows, int64(l)), rows / 2},
			{"powerlaw", powerLaw, rows},
		} {
			for trial := 0; trial < 4; trial++ {
				var preds []string
				if trial > 0 {
					preds = randomPreds(r, l, tc.dom)
				}
				text := cycleText(l, uint(r.Intn(1<<l)), preds)
				t.Run(fmt.Sprintf("l=%d/%s/%d", l, tc.name, trial), func(t *testing.T) {
					matchRef(t, tc.db, text)
				})
			}
		}
	}
}

// FuzzDecomposeMatchesRef builds small cycle instances from the fuzz bytes
// (ℓ, domain, orientation, per-relation sizes, values, weights, predicate
// constants) and demands the reference's trees, row for row.
func FuzzDecomposeMatchesRef(f *testing.F) {
	f.Add([]byte{1, 3, 0, 12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 5, 20, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0, 4, 1, 7, 9})
	f.Add([]byte{3, 7, 255, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 3, 6, 9, 12, 15, 0, 3, 1})
	f.Add([]byte{2, 1, 10, 23, 3, 0, 1, 3, 1, 0, 3, 0, 0, 0, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		l := 3 + next()%4
		dom := 1 + next()%8
		flip := uint(next())
		db := relation.NewDB()
		for i := 1; i <= l; i++ {
			rel := relation.New(fmt.Sprintf("R%d", i), "A", "B")
			for range next() % 24 {
				rel.Add(float64(next()%5), int64(next()%dom), int64(next()%dom))
			}
			db.AddRelation(rel)
		}
		ops := []string{"<", ">", "!=", "<=", ">=", "="}
		preds := make([]string, l)
		for i := range preds {
			if b := next(); b%3 == 0 {
				preds[i] = fmt.Sprintf("x%d %s %d", (i+b/3%2)%l+1, ops[b/6%len(ops)], next()%(dom+1))
			}
		}
		matchRef(t, db, cycleText(l, flip, preds))
	})
}

// TestDecomposeAllocs pins the decomposition's allocation count to the
// number of bags and indexes, whatever the row count: on the worst-case
// 4-cycle it may differ by at most 64 objects between n = 2 000 and
// n = 20 000. Every emitted column and weight slice is allocated at its
// exact length, so the DP graph that keeps them holds no spare capacity.
func TestDecomposeAllocs(t *testing.T) {
	shape, err := DetectCycle(query.CycleQuery(4))
	if err != nil {
		t.Fatal(err)
	}
	d := dioid.Tropical{}
	allocs := func(n int) float64 {
		db := dataset.WorstCaseCycle(4, n, 1)
		return testing.AllocsPerRun(3, func() {
			if _, err := Decompose[float64](d, db, shape); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2000), allocs(20000)
	if math.Abs(large-small) > 64 {
		t.Errorf("Decompose allocates %.0f objects at n=2000 and %.0f at n=20000; want them within 64", small, large)
	}
	trees, err := Decompose[float64](d, dataset.WorstCaseCycle(4, 2000, 1), shape)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees {
		for _, in := range tr.Inputs {
			if cap(in.Weights) != len(in.Weights) {
				t.Errorf("%s %s: weights cap %d, len %d", tr.Name, in.Name, cap(in.Weights), len(in.Weights))
			}
			for c, col := range in.Cols {
				if cap(col) != len(col) {
					t.Errorf("%s %s column %d: cap %d, len %d", tr.Name, in.Name, c, cap(col), len(col))
				}
			}
		}
	}
}

// part identifies which horizontal slice of a relation a partition uses.
type refPart int

const (
	refFull refPart = iota
	refHeavy
	refLight
)

// cycleRel is one cycle position's relation, oriented so column 0 holds
// Vars[i] and column 1 holds Vars[i+1], with per-tuple heaviness of the
// column-0 value precomputed.
type refCycleRel struct {
	rows    [][]relation.Value // oriented rows
	weights []float64
	ids     []int64 // original row ids (for Lift)
	isHeavy []bool  // heaviness of rows[i][0] in column 0
}

// refDecompose splits the cycle query's output into ℓ+1 disjoint trees. The
// atomStage function is not needed: weights are lifted with the cycle
// position as the stage index, matching the serialized positions the engine
// uses for acyclic queries.
func refDecompose[W any](d dioid.Dioid[W], db *relation.DB, shape *CycleShape) ([]Tree[W], error) {
	l := len(shape.Rels)
	rels := make([]*refCycleRel, l)
	n := 0
	for i, name := range shape.Rels {
		r := db.Relation(name)
		if r == nil {
			return nil, fmt.Errorf("relation %s not in database", name)
		}
		cr, err := refOrient(r, shape.Q.Atoms[shape.Atoms[i]], shape.Vars[i])
		if err != nil {
			return nil, err
		}
		// The heavy/light threshold is sized from the *filtered*
		// cardinalities: predicates shrink the instance the decomposition
		// actually runs on.
		if len(cr.rows) > n {
			n = len(cr.rows)
		}
		rels[i] = cr
	}
	threshold := math.Pow(float64(n), 2/float64(l))
	for _, cr := range rels {
		refMarkHeavy(cr, threshold)
	}
	var trees []Tree[W]
	for i := 0; i < l; i++ {
		tr, err := refHeavyTree[W](d, rels, shape, i)
		if err != nil {
			return nil, err
		}
		trees = append(trees, tr)
	}
	trees = append(trees, refLightTree[W](d, rels, shape))
	return trees, nil
}

func refOrient(r *relation.Relation, a query.Atom, firstVar string) (*refCycleRel, error) {
	preds, err := a.ScanPreds(r)
	if err != nil {
		return nil, err
	}
	flip := a.Vars[0] != firstVar
	c0, c1 := a.VarCol(0), a.VarCol(1)
	if flip {
		c0, c1 = c1, c0
	}
	// Qualifying row ids, ascending (nil = every row). Keeping original ids
	// in cr.ids preserves Lift row identity for tie-breaking dioids.
	ids := r.FilterScan(preds)
	n := r.Size()
	if ids != nil {
		n = len(ids)
	}
	cr := &refCycleRel{
		rows:    make([][]relation.Value, n),
		weights: make([]float64, n),
		ids:     make([]int64, n),
		isHeavy: make([]bool, n),
	}
	// One flat backing block for all oriented rows: two column reads per row
	// off the relation's contiguous blocks, no per-row allocation.
	flat := make([]relation.Value, 2*n)
	col0, col1 := r.Col(c0), r.Col(c1)
	for i := 0; i < n; i++ {
		s := i
		if ids != nil {
			s = ids[i]
		}
		row := flat[2*i : 2*i+2 : 2*i+2]
		row[0], row[1] = col0[s], col1[s]
		cr.rows[i] = row
		cr.ids[i] = int64(s)
		cr.weights[i] = r.Weights[s]
	}
	return cr, nil
}

// markHeavy flags tuples whose first-column value occurs at least threshold
// times (Section 5.3.1: "t.Ai occurs at least n^(2/ℓ) times in column
// Ri.Ai").
func refMarkHeavy(cr *refCycleRel, threshold float64) {
	count := map[relation.Value]int{}
	for _, row := range cr.rows {
		count[row[0]]++
	}
	for i, row := range cr.rows {
		cr.isHeavy[i] = float64(count[row[0]]) >= threshold
	}
}

// use reports whether row r of cycle relation cr participates in slice p.
func refUse(cr *refCycleRel, r int, p refPart) bool {
	switch p {
	case refHeavy:
		return cr.isHeavy[r]
	case refLight:
		return !cr.isHeavy[r]
	}
	return true
}

// partOf returns the slice of cycle position j used by heavy partition i:
// positions before i are light, position i is heavy, later positions full
// (database partition T_{i+1} of Section 5.3.1).
func refPartOf(i, j int) refPart {
	switch {
	case j == i:
		return refHeavy
	case j < i:
		return refLight
	}
	return refFull
}

// heavyTree materializes the heavy decomposition for partition i: a path of
// ℓ-2 bags, all containing the heavy variable x_i. Bag 0 joins R_i ⋈ R_{i+1};
// middle bag j is heavyValues(x_i) × R_{i+j+1}; the last bag joins
// R_{i+ℓ-2} ⋈ R_{i+ℓ-1} (which closes the cycle back to x_i).
func refHeavyTree[W any](d dioid.Dioid[W], rels []*refCycleRel, shape *CycleShape, i int) (Tree[W], error) {
	l := len(rels)
	at := func(j int) int { return (i + j) % l }
	v := func(j int) string { return shape.Vars[at(j)] }
	lift := func(j, row int) W {
		return d.Lift(rels[at(j)].weights[row], shape.Atoms[at(j)], rels[at(j)].ids[row])
	}
	// Heavy values of x_i present in R_i's heavy slice, in first-appearance
	// order: bag row order must be deterministic across compiles so that
	// equal-weight results keep a stable tie order (iterating the dedup map
	// here made repeated enumerations of the same database disagree on ties).
	seen := map[relation.Value]bool{}
	var heavyVals []relation.Value
	cri := rels[i]
	for r, row := range cri.rows {
		if cri.isHeavy[r] && !seen[row[0]] {
			seen[row[0]] = true
			heavyVals = append(heavyVals, row[0])
		}
	}
	tr := Tree[W]{Name: fmt.Sprintf("T%d[heavy %s]", i+1, v(0))}
	if l == 3 {
		// Degenerate: one bag joining all three relations.
		in := dpgraph.StageInput[W]{
			Name: "B0", Vars: []string{v(0), v(1), v(2)}, Parent: -1,
		}
		idx1 := refIndexByCol0(rels[at(1)], refPartOf(i, at(1)))
		idx2 := refIndexByPair(rels[at(2)], refPartOf(i, at(2)))
		for r0, row0 := range cri.rows {
			if !cri.isHeavy[r0] {
				continue
			}
			for _, r1 := range idx1[row0[1]] {
				row1 := rels[at(1)].rows[r1]
				for _, r2 := range idx2[refPair{row1[1], row0[0]}] {
					w := d.Times(lift(0, r0), d.Times(lift(1, r1), lift(2, r2)))
					in.Rows = append(in.Rows, []relation.Value{row0[0], row0[1], row1[1]})
					in.Weights = append(in.Weights, w)
				}
			}
		}
		tr.Inputs = []dpgraph.StageInput[W]{in}
		return tr, nil
	}
	nbags := l - 2
	for b := 0; b < nbags; b++ {
		in := dpgraph.StageInput[W]{
			Name:   fmt.Sprintf("B%d", b),
			Vars:   []string{v(0), v(b + 1), v(b + 2)},
			Parent: b - 1,
		}
		switch b {
		case 0:
			// R_i ⋈ R_{i+1} restricted to heavy x_i: iterate heavy values ×
			// R_{i+1} tuples, verifying membership in R_i by hash.
			idx0 := refIndexByPair(cri, refHeavy)
			p1 := refPartOf(i, at(1))
			for r1, row1 := range rels[at(1)].rows {
				if !refUse(rels[at(1)], r1, p1) {
					continue
				}
				for _, h := range heavyVals {
					for _, r0 := range idx0[refPair{h, row1[0]}] {
						w := d.Times(lift(0, r0), lift(1, r1))
						in.Rows = append(in.Rows, []relation.Value{h, row1[0], row1[1]})
						in.Weights = append(in.Weights, w)
					}
				}
			}
		case nbags - 1:
			// R_{i+ℓ-2} ⋈ R_{i+ℓ-1}, closing back to the heavy variable.
			pm := refPartOf(i, at(l-2))
			idxLast := refIndexByPair(rels[at(l-1)], refPartOf(i, at(l-1)))
			for rm, rowm := range rels[at(l-2)].rows {
				if !refUse(rels[at(l-2)], rm, pm) {
					continue
				}
				for _, h := range heavyVals {
					for _, rl := range idxLast[refPair{rowm[1], h}] {
						w := d.Times(lift(l-2, rm), lift(l-1, rl))
						in.Rows = append(in.Rows, []relation.Value{h, rowm[0], rowm[1]})
						in.Weights = append(in.Weights, w)
					}
				}
			}
		default:
			// Cross product of heavy values with R_{i+b+1}.
			pj := refPartOf(i, at(b+1))
			for rj, rowj := range rels[at(b+1)].rows {
				if !refUse(rels[at(b+1)], rj, pj) {
					continue
				}
				for _, h := range heavyVals {
					in.Rows = append(in.Rows, []relation.Value{h, rowj[0], rowj[1]})
					in.Weights = append(in.Weights, lift(b+1, rj))
				}
			}
		}
		tr.Inputs = append(tr.Inputs, in)
	}
	return tr, nil
}

// lightTree materializes the all-light decomposition: two bags obtained by
// chain joins over the light slices, split at position m = ⌈ℓ/2⌉.
func refLightTree[W any](d dioid.Dioid[W], rels []*refCycleRel, shape *CycleShape) Tree[W] {
	l := len(rels)
	m := (l + 1) / 2
	tr := Tree[W]{Name: fmt.Sprintf("T%d[all-light]", l+1)}
	b1 := refChainBag[W](d, rels, shape, 0, m)   // covers R_0..R_{m-1}: vars x_0..x_m
	b2 := refChainBag[W](d, rels, shape, m, l-m) // covers R_m..R_{l-1}: vars x_m..x_{l-1},x_0
	b1.Name, b1.Parent = "B0", -1
	b2.Name, b2.Parent = "B1", 0
	tr.Inputs = []dpgraph.StageInput[W]{b1, b2}
	return tr
}

// chainBag joins count consecutive light relations starting at cycle
// position start via hash chain joins, producing rows over the count+1
// variables x_start..x_{start+count}.
func refChainBag[W any](d dioid.Dioid[W], rels []*refCycleRel, shape *CycleShape, start, count int) dpgraph.StageInput[W] {
	l := len(rels)
	at := func(j int) int { return (start + j) % l }
	vars := make([]string, count+1)
	for j := 0; j <= count; j++ {
		vars[j] = shape.Vars[at(j)]
	}
	in := dpgraph.StageInput[W]{Vars: vars}
	idx := make([]map[relation.Value][]int, count)
	for j := 1; j < count; j++ {
		idx[j] = refIndexByCol0(rels[at(j)], refLight)
	}
	vals := make([]relation.Value, count+1)
	var rec func(j int, w W)
	rec = func(j int, w W) {
		if j == count {
			in.Rows = append(in.Rows, append([]relation.Value(nil), vals...))
			in.Weights = append(in.Weights, w)
			return
		}
		cr := rels[at(j)]
		var rows []int
		if j == 0 {
			for r := range cr.rows {
				if !cr.isHeavy[r] {
					rows = append(rows, r)
				}
			}
		} else {
			rows = idx[j][vals[j]]
		}
		for _, r := range rows {
			if j == 0 {
				vals[0] = cr.rows[r][0]
			} else if cr.rows[r][0] != vals[j] {
				continue
			}
			vals[j+1] = cr.rows[r][1]
			wr := d.Lift(cr.weights[r], shape.Atoms[at(j)], cr.ids[r])
			rec(j+1, d.Times(w, wr))
		}
	}
	rec(0, d.One())
	return in
}

type refPair struct{ a, b relation.Value }

// indexByCol0 hashes row ids of the requested slice by their first column.
// partitionIdx is only used for the heavy/light decision context (-1 = plain
// light).
func refIndexByCol0(cr *refCycleRel, p refPart) map[relation.Value][]int {
	idx := map[relation.Value][]int{}
	for r, row := range cr.rows {
		if !refUse(cr, r, p) {
			continue
		}
		idx[row[0]] = append(idx[row[0]], r)
	}
	return idx
}

// indexByPair hashes row ids of the requested slice by both columns.
func refIndexByPair(cr *refCycleRel, p refPart) map[refPair][]int {
	idx := map[refPair][]int{}
	for r, row := range cr.rows {
		if !refUse(cr, r, p) {
			continue
		}
		k := refPair{row[0], row[1]}
		idx[k] = append(idx[k], r)
	}
	return idx
}
