package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"anyk/internal/core"
	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
	"anyk/internal/join"
	"anyk/internal/query"
	"anyk/internal/relation"
)

func intDB(r *rand.Rand, q *query.CQ, rows, dom int) *relation.DB {
	db := relation.NewDB()
	for _, a := range q.Atoms {
		if db.Relation(a.Rel) != nil {
			continue
		}
		attrs := make([]string, len(a.Vars))
		for i := range attrs {
			attrs[i] = fmt.Sprintf("c%d", i)
		}
		rel := relation.New(a.Rel, attrs...)
		for k := 0; k < rows; k++ {
			vals := make([]relation.Value, len(attrs))
			for i := range vals {
				vals[i] = int64(r.Intn(dom))
			}
			rel.Add(float64(r.Intn(40)), vals...)
		}
		db.AddRelation(rel)
	}
	return db
}

func TestEnumerateMatchesYannakakisAcyclic(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, q := range []*query.CQ{query.PathQuery(3), query.PathQuery(5), query.StarQuery(4), query.CartesianQuery(3)} {
		db := intDB(r, q, 12, 3)
		want, err := join.Yannakakis(db, q)
		if err != nil {
			t.Fatal(err)
		}
		join.SortResults(want)
		for _, alg := range core.Algorithms {
			it, err := Enumerate[float64](db, q, dioid.Tropical{}, alg)
			if err != nil {
				t.Fatalf("%s/%v: %v", q.Name, alg, err)
			}
			got := it.Drain(0)
			if len(got) != len(want) {
				t.Fatalf("%s/%v: %d rows, want %d", q.Name, alg, len(got), len(want))
			}
			for i := range got {
				if got[i].Weight != want[i].Weight {
					t.Fatalf("%s/%v rank %d: %v want %v", q.Name, alg, i, got[i].Weight, want[i].Weight)
				}
			}
		}
	}
}

func TestEnumerateCycleMatchesGenericJoin(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for _, l := range []int{4, 6} {
		q := query.CycleQuery(l)
		db := intDB(r, q, 16, 3)
		want, err := join.GenericJoin(db, q)
		if err != nil {
			t.Fatal(err)
		}
		join.SortResults(want)
		it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Lazy)
		if err != nil {
			t.Fatal(err)
		}
		got := it.Drain(0)
		if it.Trees != l+1 {
			t.Fatalf("l=%d: %d trees", l, it.Trees)
		}
		if len(got) != len(want) {
			t.Fatalf("l=%d: %d rows, want %d", l, len(got), len(want))
		}
		for i := range got {
			if got[i].Weight != want[i].Weight {
				t.Fatalf("l=%d rank %d: %v want %v", l, i, got[i].Weight, want[i].Weight)
			}
		}
	}
}

func TestEnumerateRowValuesAreJoinResults(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	q := query.PathQuery(4)
	db := intDB(r, q, 15, 3)
	want, _ := join.Yannakakis(db, q)
	wantSet := map[string]bool{}
	for _, w := range want {
		wantSet[fmt.Sprint(w.Vals, w.Weight)] = true
	}
	it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Recursive)
	if err != nil {
		t.Fatal(err)
	}
	if len(it.Vars) != 5 {
		t.Fatalf("vars: %v", it.Vars)
	}
	for _, row := range it.Drain(0) {
		if !wantSet[fmt.Sprint(row.Vals, row.Weight)] {
			t.Fatalf("row %v (w=%v) is not a join result", row.Vals, row.Weight)
		}
	}
}

func TestMinWeightProjection(t *testing.T) {
	// Q(x1) :- R1(x1,x2), R2(x2,x3): distinct x1 ranked by min witness sum.
	r := rand.New(rand.NewSource(64))
	q := query.NewCQ("proj", []string{"x1"},
		query.Atom{Rel: "R1", Vars: []string{"x1", "x2"}},
		query.Atom{Rel: "R2", Vars: []string{"x2", "x3"}})
	db := intDB(r, query.PathQuery(2), 20, 4)
	full, _ := join.Yannakakis(db, query.PathQuery(2))
	best := map[relation.Value]float64{}
	for _, res := range full {
		x1 := res.Vals[0]
		if w, ok := best[x1]; !ok || res.Weight < w {
			best[x1] = res.Weight
		}
	}
	type pair struct {
		v relation.Value
		w float64
	}
	var want []pair
	for v, w := range best {
		want = append(want, pair{v, w})
	}
	sort.Slice(want, func(i, j int) bool { return want[i].w < want[j].w })
	for _, alg := range []core.Algorithm{core.Take2, core.Recursive, core.Batch} {
		it, err := Enumerate[float64](db, q, dioid.Tropical{}, alg, Options{Semantics: MinWeight})
		if err != nil {
			t.Fatal(err)
		}
		got := it.Drain(0)
		if len(got) != len(want) {
			t.Fatalf("%v: %d rows, want %d", alg, len(got), len(want))
		}
		for i := range got {
			if got[i].Weight != want[i].w {
				t.Fatalf("%v rank %d: weight %v want %v", alg, i, got[i].Weight, want[i].w)
			}
		}
		seen := map[relation.Value]bool{}
		for _, row := range got {
			if seen[row.Vals[0]] {
				t.Fatalf("%v: duplicate projected row %v", alg, row.Vals)
			}
			seen[row.Vals[0]] = true
		}
	}
}

func TestMinWeightProjectionExample19(t *testing.T) {
	q := query.NewCQ("ex19", []string{"y1", "y2", "y3", "y4"},
		query.Atom{Rel: "E1", Vars: []string{"y1", "y2"}},
		query.Atom{Rel: "E2", Vars: []string{"y2", "y3"}},
		query.Atom{Rel: "E3", Vars: []string{"x1", "y1", "y4"}},
		query.Atom{Rel: "E4", Vars: []string{"x2", "y3"}})
	// Database of Fig. 15c.
	db := relation.NewDB()
	e1 := relation.New("E1", "y1", "y2")
	e1.Add(0, 1, 1)
	e1.Add(2, 2, 2)
	e2 := relation.New("E2", "y2", "y3")
	e2.Add(1, 1, 1)
	e2.Add(2, 2, 4)
	e3 := relation.New("E3", "x1", "y1", "y4")
	e3.Add(1, 0, 1, 5)
	e3.Add(3, 0, 1, 5) // duplicate witness, heavier
	e3.Add(3, 0, 2, 6)
	e3.Add(2, 0, 2, 6)
	e4 := relation.New("E4", "x2", "y3")
	e4.Add(1, 1, 1)
	e4.Add(2, 2, 1)
	e4.Add(1, 1, 4)
	db.AddRelation(e1)
	db.AddRelation(e2)
	db.AddRelation(e3)
	db.AddRelation(e4)
	it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Take2, Options{Semantics: MinWeight})
	if err != nil {
		t.Fatal(err)
	}
	got := it.Drain(0)
	// Brute-force min-weight projection.
	type row4 [4]relation.Value
	best := map[row4]float64{}
	for i1 := range e1.Size() {
		for i2 := range e2.Size() {
			for i3 := range e3.Size() {
				for i4 := range e4.Size() {
					if e1.At(i1, 1) != e2.At(i2, 0) || e3.At(i3, 1) != e1.At(i1, 0) || e4.At(i4, 1) != e2.At(i2, 1) {
						continue
					}
					w := e1.Weights[i1] + e2.Weights[i2] + e3.Weights[i3] + e4.Weights[i4]
					k := row4{e1.At(i1, 0), e1.At(i1, 1), e2.At(i2, 1), e3.At(i3, 2)}
					if old, ok := best[k]; !ok || w < old {
						best[k] = w
					}
				}
			}
		}
	}
	if len(got) != len(best) {
		t.Fatalf("%d rows, want %d (%v)", len(got), len(best), got)
	}
	prev := -1.0
	for _, row := range got {
		k := row4{row.Vals[0], row.Vals[1], row.Vals[2], row.Vals[3]}
		if best[k] != row.Weight {
			t.Fatalf("row %v weight %v, want %v", row.Vals, row.Weight, best[k])
		}
		if row.Weight < prev {
			t.Fatal("not ranked")
		}
		prev = row.Weight
	}
}

func TestAllWeightsProjection(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	q := query.NewCQ("proj", []string{"x1"},
		query.Atom{Rel: "R1", Vars: []string{"x1", "x2"}},
		query.Atom{Rel: "R2", Vars: []string{"x2", "x3"}})
	db := intDB(r, query.PathQuery(2), 10, 3)
	full, _ := join.Yannakakis(db, query.PathQuery(2))
	it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Lazy, Options{Semantics: AllWeights})
	if err != nil {
		t.Fatal(err)
	}
	got := it.Drain(0)
	if len(got) != len(full) {
		t.Fatalf("all-weights must keep every witness: %d vs %d", len(got), len(full))
	}
	if len(got) > 0 && len(got[0].Vals) != 1 {
		t.Fatalf("projection not applied: %v", got[0].Vals)
	}
}

func TestLexicographicOrder(t *testing.T) {
	// 2-path ranked lexicographically by (w(R1-tuple), w(R2-tuple)).
	db := relation.NewDB()
	r1 := relation.New("R1", "A", "B")
	r1.Add(2, 1, 1)
	r1.Add(1, 2, 1)
	r2 := relation.New("R2", "B", "C")
	r2.Add(5, 1, 1)
	r2.Add(3, 1, 2)
	db.AddRelation(r1)
	db.AddRelation(r2)
	q := query.PathQuery(2)
	d := dioid.NewLex(2)
	it, err := Enumerate[dioid.Vec](db, q, d, core.Take2)
	if err != nil {
		t.Fatal(err)
	}
	got := it.Drain(0)
	if len(got) != 4 {
		t.Fatalf("%d rows", len(got))
	}
	// Expected order: R1 weight first (1 then 2), then R2 weight (3 then 5).
	wantFirst := []float64{1, 3}
	if got[0].Weight[0] != wantFirst[0] || got[0].Weight[1] != wantFirst[1] {
		t.Fatalf("first = %v", got[0].Weight)
	}
	for i := 1; i < len(got); i++ {
		if d.Less(got[i].Weight, got[i-1].Weight) {
			t.Fatalf("not in lexicographic order at %d: %v after %v", i, got[i].Weight, got[i-1].Weight)
		}
	}
}

func TestBooleanQuery(t *testing.T) {
	r := rand.New(rand.NewSource(66))
	q := query.CycleQuery(4)
	db := intDB(r, q, 14, 3)
	want, _ := join.GenericJoin(db, q)
	got, err := BooleanQuery(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if got != (len(want) > 0) {
		t.Fatalf("BooleanQuery = %v, output size %d", got, len(want))
	}
	// guaranteed-empty instance
	db2 := relation.NewDB()
	for i := 1; i <= 4; i++ {
		rel := relation.New(fmt.Sprintf("R%d", i), "A", "B")
		rel.Add(1, int64(i*10), int64(i*10+1)) // no joins possible
		db2.AddRelation(rel)
	}
	got2, err := BooleanQuery(db2, q)
	if err != nil {
		t.Fatal(err)
	}
	if got2 {
		t.Fatal("empty cycle reported true")
	}
}

func TestEnumerateErrors(t *testing.T) {
	db := relation.NewDB()
	// non-simple cyclic query
	q := query.NewCQ("clique", nil,
		query.Atom{Rel: "E1", Vars: []string{"a", "b"}},
		query.Atom{Rel: "E2", Vars: []string{"b", "c"}},
		query.Atom{Rel: "E3", Vars: []string{"c", "a"}},
		query.Atom{Rel: "E4", Vars: []string{"a", "c"}},
	)
	if _, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Take2); err == nil {
		t.Fatal("expected unsupported-decomposition error")
	}
	// projection over cyclic query
	qc := query.CycleQuery(4)
	qp := query.NewCQ("cycproj", []string{"x1"}, qc.Atoms...)
	if _, err := Enumerate[float64](db, qp, dioid.Tropical{}, core.Take2); err == nil {
		t.Fatal("expected cyclic-projection error")
	}
	// missing relation
	if _, err := Enumerate[float64](db, query.PathQuery(2), dioid.Tropical{}, core.Take2); err == nil {
		t.Fatal("expected missing-relation error")
	}
}

func TestTieBreakWithOverlappingUnion(t *testing.T) {
	// Build an intentionally overlapping "decomposition": two identical
	// trees for a 2-path. With the tie-break dioid, every result arrives
	// twice consecutively; Dedup must restore set semantics.
	d := dioid.NewGroupTie[float64](dioid.Tropical{}, 2)
	r := rand.New(rand.NewSource(67))
	q := query.PathQuery(2)
	// Distinct rows per relation so each output row has exactly one witness
	// and duplicates can only come from the overlapping trees.
	db := relation.NewDB()
	for _, name := range []string{"R1", "R2"} {
		rel := relation.New(name, "A", "B")
		seen := map[[2]int64]bool{}
		for rel.Size() < 10 {
			row := [2]int64{int64(r.Intn(4)), int64(r.Intn(4))}
			if seen[row] {
				continue
			}
			seen[row] = true
			rel.Add(float64(r.Intn(40)), row[0], row[1])
		}
		db.AddRelation(rel)
	}
	plan, err := query.FullPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := stageInputs[dioid.TieWeight[float64]](db, plan, d, false)
	if err != nil {
		t.Fatal(err)
	}
	it, err := enumerateUnion[dioid.TieWeight[float64]](d,
		[][]dpgraph.StageInput[dioid.TieWeight[float64]]{inputs, inputs},
		q.Vars(), "", core.Take2, Options{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	got := it.Drain(0)
	want, _ := join.Yannakakis(db, q)
	if len(got) != len(want) {
		t.Fatalf("dedup union: %d rows, want %d", len(got), len(want))
	}
	join.SortResults(want)
	for i := range got {
		if got[i].Weight.W != want[i].Weight {
			t.Fatalf("rank %d: %v want %v", i, got[i].Weight.W, want[i].Weight)
		}
	}
}

func TestBottleneckRanking(t *testing.T) {
	// (min,max) dioid: rank 2-paths by their heaviest edge, ascending.
	r := rand.New(rand.NewSource(68))
	q := query.PathQuery(2)
	db := intDB(r, q, 15, 3)
	it, err := Enumerate[float64](db, q, dioid.MinMax{}, core.Take2)
	if err != nil {
		t.Fatal(err)
	}
	got := it.Drain(0)
	// brute force bottlenecks
	r1, r2 := db.Relation("R1"), db.Relation("R2")
	var want []float64
	for i1 := range r1.Size() {
		for i2 := range r2.Size() {
			if r1.At(i1, 1) != r2.At(i2, 0) {
				continue
			}
			w := r1.Weights[i1]
			if r2.Weights[i2] > w {
				w = r2.Weights[i2]
			}
			want = append(want, w)
		}
	}
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Weight != want[i] {
			t.Fatalf("rank %d: bottleneck %v want %v", i, got[i].Weight, want[i])
		}
	}
}

// ghdQueries are cyclic full CQs that are not simple cycles; Enumerate must
// route them through the hypertree planner.
func ghdQueries() []*query.CQ {
	triTail := query.NewCQ("tritail", nil,
		query.Atom{Rel: "E1", Vars: []string{"a", "b"}},
		query.Atom{Rel: "E2", Vars: []string{"b", "c"}},
		query.Atom{Rel: "E3", Vars: []string{"c", "a"}},
		query.Atom{Rel: "E4", Vars: []string{"c", "d"}},
	)
	vars := []string{"a", "b", "c", "d"}
	var cl []query.Atom
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			cl = append(cl, query.Atom{Rel: fmt.Sprintf("K%d%d", i, j), Vars: []string{vars[i], vars[j]}})
		}
	}
	// A 4-cycle with one diagonal: two triangles glued on the edge a-c.
	chordSq := query.NewCQ("chordsq", nil,
		query.Atom{Rel: "R1", Vars: []string{"a", "b"}},
		query.Atom{Rel: "R2", Vars: []string{"b", "c"}},
		query.Atom{Rel: "R3", Vars: []string{"c", "d"}},
		query.Atom{Rel: "R4", Vars: []string{"d", "a"}},
		query.Atom{Rel: "R5", Vars: []string{"a", "c"}},
	)
	return []*query.CQ{triTail, query.NewCQ("K4", nil, cl...), chordSq}
}

func TestEnumerateGHDMatchesGenericJoin(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	for _, q := range ghdQueries() {
		db := intDB(r, q, 24, 4)
		want, err := join.GenericJoin(db, q)
		if err != nil {
			t.Fatal(err)
		}
		join.SortResults(want)
		for _, alg := range core.Algorithms {
			it, err := Enumerate[float64](db, q, dioid.Tropical{}, alg)
			if err != nil {
				t.Fatalf("%s/%v: %v", q.Name, alg, err)
			}
			got := it.Drain(0)
			if len(got) != len(want) {
				t.Fatalf("%s/%v: %d rows, want %d", q.Name, alg, len(got), len(want))
			}
			for i := range got {
				if got[i].Weight != want[i].Weight {
					t.Fatalf("%s/%v rank %d: weight %v want %v", q.Name, alg, i, got[i].Weight, want[i].Weight)
				}
			}
			if it.Plan == nil || it.Plan.Route != "ghd" || it.Plan.Width < 2 || len(it.Plan.Bags) == 0 {
				t.Fatalf("%s/%v: plan not reported for the GHD route: %+v", q.Name, alg, it.Plan)
			}
		}
	}
}

// TestEnumerateGHDRowValues checks the actual output rows (not just ranks)
// against the batch join, and that self-joins through aliases work on the
// GHD route.
func TestEnumerateGHDRowValues(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	q := ghdQueries()[0]
	edges := relation.New("EDGES", "A1", "A2")
	for k := 0; k < 40; k++ {
		edges.Add(float64(r.Intn(30)), int64(r.Intn(5)), int64(r.Intn(5)))
	}
	db := relation.NewDB()
	db.AddRelation(edges)
	for _, a := range q.Atoms {
		db.Alias(a.Rel, edges)
	}
	want, err := join.GenericJoin(db, q)
	if err != nil {
		t.Fatal(err)
	}
	it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Take2)
	if err != nil {
		t.Fatal(err)
	}
	got := it.Drain(0)
	wantSet := map[string]int{}
	for _, w := range want {
		wantSet[fmt.Sprintf("%v|%.4f", w.Vals, w.Weight)]++
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i, g := range got {
		if i > 0 && g.Weight < got[i-1].Weight {
			t.Fatalf("rank %d out of order", i)
		}
		k := fmt.Sprintf("%v|%.4f", g.Vals, g.Weight)
		if wantSet[k] == 0 {
			t.Fatalf("unexpected row %s", k)
		}
		wantSet[k]--
	}
}

func TestPlanInfoRoutes(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	qa := query.PathQuery(3)
	it, err := Enumerate[float64](intDB(r, qa, 8, 3), qa, dioid.Tropical{}, core.Take2)
	if err != nil {
		t.Fatal(err)
	}
	if it.Plan == nil || it.Plan.Route != "acyclic" || it.Plan.Width != 1 {
		t.Fatalf("acyclic plan: %+v", it.Plan)
	}
	qc := query.CycleQuery(4)
	it, err = Enumerate[float64](intDB(r, qc, 8, 3), qc, dioid.Tropical{}, core.Take2)
	if err != nil {
		t.Fatal(err)
	}
	if it.Plan == nil || it.Plan.Route != "simple-cycle" || it.Plan.Trees != 5 {
		t.Fatalf("simple-cycle plan: %+v", it.Plan)
	}
}

// TestGHDErrorNamesPlanner: the unsupported-query error path must name the
// planner fallback and its computed width, not just DetectCycle's error.
func TestGHDErrorNamesPlanner(t *testing.T) {
	db := relation.NewDB() // no relations: materialization must fail
	q := ghdQueries()[0]
	_, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Take2)
	if err == nil {
		t.Fatal("expected an error for missing relations")
	}
	msg := err.Error()
	for _, want := range []string{"GHD", "width"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not mention %q", msg, want)
		}
	}
}

// TestCountResultsRoutes: CountResults compiles through Enumerate's seam, so
// on every route — predicates and AllWeights projections included — it
// counts exactly the rows a serial Batch drain returns.
func TestCountResultsRoutes(t *testing.T) {
	r := rand.New(rand.NewSource(66))
	queries := ghdQueries()
	for _, src := range []string{
		"Q(x1,x2,x3) :- R1(x1,x2), R2(x2,x3)",
		"Q(x1,x2,x3) :- R1(x1,x2 | x1 > 0), R2(x2,x3)",
		"Q(x1) :- R1(x1,x2), R2(x2,x3)",
		"Q(a,b,c,d) :- R1(a,b), R2(b,c), R3(c,d), R4(d,a)",
		"Q(a,b,c,d) :- R1(a,b | a > 0), R2(b,c), R3(c,d), R4(d,a)",
	} {
		q, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	for _, q := range queries {
		db := intDB(r, q, 20, 4)
		it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Batch, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want := len(it.Drain(0))
		n, err := CountResults(db, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if int(n) != want {
			t.Fatalf("%s: CountResults=%v, Batch drained %d rows", q, n, want)
		}
	}
	// A projection over a cycle is rejected, as Enumerate rejects it, not
	// counted as its full join.
	q, err := query.Parse("Q(a) :- R1(a,b), R2(b,c), R3(c,d), R4(d,a)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CountResults(intDB(r, q, 20, 4), q); err == nil || !strings.Contains(err.Error(), "projections over cyclic queries are not supported") {
		t.Fatalf("cyclic projection: err = %v", err)
	}
}
