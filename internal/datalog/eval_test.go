package datalog_test

// Evaluator tests: program-vs-hand-lowered differentials across every
// decomposition route, Dijkstra-checked recursive reachability over several
// graph shapes, constant lowering against typed columns, negation, mutual
// recursion, divergence capping, and cache-backed warm re-evaluation.

import (
	"math/rand"
	"strings"
	"testing"

	"anyk/internal/core"
	"anyk/internal/datalog"
	"anyk/internal/dioid"
	"anyk/internal/engine"
	"anyk/internal/query"
	"anyk/internal/relation"
	"anyk/internal/testkit"
)

// binRel fills a fresh binary int64 relation from (src, dst, weight) triples.
func binRel(name string, rows ...[3]float64) *relation.Relation {
	rel := relation.New(name, "a", "b")
	for _, r := range rows {
		rel.Add(r[2], int64(r[0]), int64(r[1]))
	}
	return rel
}

// randomBinRel draws n rows over [0, dom) with small integer weights.
func randomBinRel(r *rand.Rand, name string, n, dom int) *relation.Relation {
	rel := relation.New(name, "a", "b")
	for i := 0; i < n; i++ {
		rel.Add(float64(r.Intn(40)), int64(r.Intn(dom)), int64(r.Intn(dom)))
	}
	return rel
}

func baseDB(rels ...*relation.Relation) *relation.DB {
	db := relation.NewDB()
	for _, rel := range rels {
		db.AddRelation(rel)
	}
	return db
}

func atom(rel string, vars ...string) query.Atom { return query.Atom{Rel: rel, Vars: vars} }

func TestProgramAcyclicTwin(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	db := baseDB(
		randomBinRel(r, "r1", 14, 4),
		randomBinRel(r, "r2", 14, 4),
		randomBinRel(r, "r3", 14, 4),
	)
	src := `
hop(x, z) :- r1(x, y), r2(y, z).
answer(x, z, u) :- hop(x, z), r3(z, u).`
	twinDB := db.Clone()
	testkit.LowerByHand(t, twinDB, "hop", []string{"x", "z"}, dioid.Tropical{},
		query.NewCQ("hop", nil, atom("r1", "x", "y"), atom("r2", "y", "z")))
	twin := query.NewCQ("answer", nil, atom("hop", "x", "z"), atom("r3", "z", "u"))
	testkit.DiffProgram(t, db, src, twinDB, twin, dioid.Tropical{}, 1, 2, 4)
}

func TestProgramCycleRouteTwin(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	db := baseDB(randomBinRel(r, "r1", 12, 3), randomBinRel(r, "r2", 12, 3))
	src := `
e(x, y) :- r1(x, y).
f(x, y) :- r2(x, y).
?- e(x1, x2), f(x2, x3), e(x3, x4), f(x4, x1).`
	twinDB := db.Clone()
	testkit.LowerByHand(t, twinDB, "e", []string{"x", "y"}, dioid.Tropical{},
		query.NewCQ("e", nil, atom("r1", "x", "y")))
	testkit.LowerByHand(t, twinDB, "f", []string{"x", "y"}, dioid.Tropical{},
		query.NewCQ("f", nil, atom("r2", "x", "y")))
	twin := query.NewCQ("goal", nil,
		atom("e", "x1", "x2"), atom("f", "x2", "x3"), atom("e", "x3", "x4"), atom("f", "x4", "x1"))
	testkit.DiffProgram(t, db, src, twinDB, twin, dioid.Tropical{}, 1, 2)
}

func TestProgramProjectedTwin(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	db := baseDB(
		randomBinRel(r, "r1", 10, 3),
		randomBinRel(r, "r2", 10, 3),
		randomBinRel(r, "r3", 10, 3),
	)
	// The sink goal projects z away: AllWeights semantics, duplicates kept.
	src := `
hop(x, z) :- r1(x, y), r2(y, z).
ends(x, u) :- hop(x, z), r3(z, u).`
	twinDB := db.Clone()
	testkit.LowerByHand(t, twinDB, "hop", []string{"x", "z"}, dioid.Tropical{},
		query.NewCQ("hop", nil, atom("r1", "x", "y"), atom("r2", "y", "z")))
	twin := query.NewCQ("ends", []string{"x", "u"}, atom("hop", "x", "z"), atom("r3", "z", "u"))
	testkit.DiffProgram(t, db, src, twinDB, twin, dioid.Tropical{}, 1, 2)
}

func TestProgramMultiRuleUnionTwin(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	db := baseDB(randomBinRel(r, "r1", 9, 3), randomBinRel(r, "r2", 9, 3))
	// Two rules for e (bag union, rule order) and a self-join goal over it;
	// run under max-plus to cover a second identity-Lift dioid.
	src := `
e(x, y) :- r1(x, y).
e(x, y) :- r2(x, y).
ans(x, y, z) :- e(x, y), e(y, z).`
	twinDB := db.Clone()
	testkit.LowerByHand(t, twinDB, "e", []string{"x", "y"}, dioid.MaxPlus{},
		query.NewCQ("e1", nil, atom("r1", "x", "y")),
		query.NewCQ("e2", nil, atom("r2", "x", "y")))
	twin := query.NewCQ("ans", nil, atom("e", "x", "y"), atom("e", "y", "z"))
	testkit.DiffProgram(t, db, src, twinDB, twin, dioid.MaxPlus{}, 1, 2)
}

func TestRankedReachabilityShapes(t *testing.T) {
	shapes := map[string]*relation.Relation{
		"chain": binRel("edge",
			[3]float64{0, 1, 3}, [3]float64{1, 2, 1}, [3]float64{2, 3, 4}, [3]float64{3, 4, 1}, [3]float64{4, 5, 5}),
		"cycle": binRel("edge",
			[3]float64{0, 1, 1}, [3]float64{1, 2, 2}, [3]float64{2, 3, 3}, [3]float64{3, 0, 4}),
		"diamond-dag": binRel("edge", // parallel paths: the min fold decides
			[3]float64{0, 1, 1}, [3]float64{0, 2, 5}, [3]float64{1, 3, 5}, [3]float64{2, 3, 1},
			[3]float64{3, 4, 2}, [3]float64{1, 4, 9}),
	}
	for name, rel := range shapes {
		t.Run(name, func(t *testing.T) {
			testkit.DiffReachability(t, baseDB(rel))
		})
	}
	t.Run("random-sparse", func(t *testing.T) {
		r := rand.New(rand.NewSource(53))
		rel := relation.New("edge", "a", "b")
		for i := 0; i < 30; i++ {
			rel.Add(float64(r.Intn(20))+r.Float64(), int64(r.Intn(12)), int64(r.Intn(12)))
		}
		testkit.DiffReachability(t, baseDB(rel))
	})
}

// typedDB builds a string-keyed edge list plus a float-scored label table.
func typedDB(t *testing.T) *relation.DB {
	t.Helper()
	db := relation.NewDB()
	edge, err := db.NewDerived("edge", []string{"src", "dst"}, []relation.Type{relation.TypeString, relation.TypeString})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		s, d string
		w    float64
	}{{"a", "b", 1}, {"a", "c", 3}, {"b", "c", 1}, {"c", "d", 2}, {"d", "a", 7}} {
		edge.Add(e.w, db.Dict().EncodeString(e.s), db.Dict().EncodeString(e.d))
	}
	db.AddRelation(edge)
	score, err := db.NewDerived("score", []string{"node", "val"}, []relation.Type{relation.TypeString, relation.TypeFloat64})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		n string
		v float64
	}{{"a", 2.5}, {"b", 2.0}, {"c", 2.5}, {"d", 9.25}} {
		score.Add(0, db.Dict().EncodeString(s.n), db.Dict().EncodeFloat(s.v))
	}
	db.AddRelation(score)
	return db
}

// drainProgram parses, enumerates serially under tropical, and decodes rows.
func drainProgram(t *testing.T, db *relation.DB, src string) (rows [][]any, weights []float64) {
	t.Helper()
	p, err := datalog.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	it, err := datalog.Enumerate(db, p, dioid.Tropical{}, core.Take2, engine.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for {
		r, ok := it.Next()
		if !ok {
			return rows, weights
		}
		row := make([]any, len(r.Vals))
		for i, v := range r.Vals {
			typ := relation.TypeInt64
			if it.Types != nil {
				typ = it.Types[i]
			}
			row[i] = db.Dict().Decode(typ, v)
		}
		rows = append(rows, row)
		weights = append(weights, r.Weight)
	}
}

func TestStringConstantSelection(t *testing.T) {
	db := typedDB(t)
	rows, weights := drainProgram(t, db, `reach(y) :- edge("a", y).`)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	if rows[0][0] != "b" || weights[0] != 1 || rows[1][0] != "c" || weights[1] != 3 {
		t.Fatalf("ranked selection: %v %v", rows, weights)
	}
}

func TestFloatAndIntConstants(t *testing.T) {
	db := typedDB(t)
	rows, _ := drainProgram(t, db, `q(x) :- score(x, 2.5).`)
	if len(rows) != 2 || rows[0][0] == rows[1][0] {
		t.Fatalf("float constant selection: %v", rows)
	}
	// An int constant against a float64 column matches exactly.
	rows, _ = drainProgram(t, db, `q(x) :- score(x, 2).`)
	if len(rows) != 1 || rows[0][0] != "b" {
		t.Fatalf("int-into-float constant: %v", rows)
	}
	// Selection relations are shared: the same constant pattern twice in one
	// program registers once and self-joins.
	rows, _ = drainProgram(t, db, `pair(x, y) :- score(x, 2.5), score(y, 2.5).`)
	if len(rows) != 4 {
		t.Fatalf("selection self-join: %v", rows)
	}
}

func TestConstantTypeMismatch(t *testing.T) {
	db := typedDB(t)
	p, err := datalog.ParseProgram(`q(x) :- score(x, "hi").`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = datalog.Materialize(db, p, dioid.Tropical{})
	if err == nil || !strings.Contains(err.Error(), "does not match the float64 column") {
		t.Fatalf("error = %v", err)
	}
	p, err = datalog.ParseProgram(`q(y) :- edge(3, y).`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = datalog.Materialize(db, p, dioid.Tropical{})
	if err == nil || !strings.Contains(err.Error(), "string column") {
		t.Fatalf("error = %v", err)
	}
}

// A rule reading R(_, y) derives y's type from the column `_` skips to, so
// p comes out string-typed and the goal decodes names, not codes.
func TestWildcardDerivesColumnType(t *testing.T) {
	db := relation.NewDB()
	people, err := db.NewDerived("people", []string{"id", "name"}, []relation.Type{relation.TypeInt64, relation.TypeString})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"alice", "bob"} {
		people.Add(float64(i+1), int64(i), db.Dict().EncodeString(name))
	}
	db.AddRelation(people)
	rows, _ := drainProgram(t, db, `
p(y) :- people(_, y).
?- p(y).`)
	if len(rows) != 2 || rows[0][0] != "alice" || rows[1][0] != "bob" {
		t.Fatalf("rows %v, want [[alice] [bob]]", rows)
	}
}

func TestNegationEval(t *testing.T) {
	db := baseDB(
		binRel("edge", [3]float64{0, 1, 1}, [3]float64{0, 2, 2}, [3]float64{1, 2, 3}, [3]float64{2, 0, 4}),
		func() *relation.Relation {
			r := relation.New("flag", "n")
			r.Add(0, 2)
			return r
		}(),
	)
	src := `
bad(x) :- flag(x).
safe(x, y) :- edge(x, y), not bad(y), not edge(y, 0).
?- safe(x, y).`
	rows, weights := drainProgram(t, db, src)
	// Node 2 is flagged, so (0,2) and (1,2) drop via not bad(y); nothing
	// drops via not edge(y, 0) since neither 1 nor 0 has an edge to 0.
	// Survivors ranked by edge weight: (0,1) then (2,0).
	if len(rows) != 2 || weights[0] != 1 || weights[1] != 4 ||
		rows[0][0] != int64(0) || rows[0][1] != int64(1) ||
		rows[1][0] != int64(2) || rows[1][1] != int64(0) {
		t.Fatalf("negation: %v %v", rows, weights)
	}
}

func TestMutualRecursion(t *testing.T) {
	db := baseDB(binRel("edge",
		[3]float64{0, 1, 1}, [3]float64{1, 2, 1}, [3]float64{2, 3, 1}, [3]float64{3, 4, 1}, [3]float64{4, 5, 1}))
	src := `
oddp(x, y) :- edge(x, y).
oddp(x, z) :- evenp(x, y), edge(y, z).
evenp(x, z) :- oddp(x, y), edge(y, z).
?- evenp(x, y).`
	rows, weights := drainProgram(t, db, src)
	if len(rows) != 6 {
		t.Fatalf("even-distance pairs: %v", rows)
	}
	for i, row := range rows {
		diff := row[1].(int64) - row[0].(int64)
		if diff%2 != 0 || diff < 2 || weights[i] != float64(diff) {
			t.Fatalf("pair %v weight %v", row, weights[i])
		}
	}
}

// TestConstantsOnRecursivePredicate: a constant on an atom of a recursive
// predicate lowers to a pushdown equality predicate that follows the delta
// relation through the fixpoint. (These were previously rejected outright.)
func TestConstantsOnRecursivePredicate(t *testing.T) {
	db := baseDB(binRel("edge",
		[3]float64{0, 1, 1}, [3]float64{1, 2, 1}, [3]float64{2, 3, 1}, [3]float64{3, 4, 1}))
	src := `
p(x, y) :- edge(x, y).
p(x, z) :- p(x, 1), edge(1, z).
?- p(x, y).`
	rows, weights := drainProgram(t, db, src)
	// Base edges plus the single derived fact p(0,2) via p(0,1), edge(1,2).
	if len(rows) != 5 {
		t.Fatalf("got %d rows: %v", len(rows), rows)
	}
	last := rows[len(rows)-1]
	if last[0].(int64) != 0 || last[1].(int64) != 2 || weights[len(rows)-1] != 2 {
		t.Fatalf("derived fact = %v weight %v, want (0,2) weight 2", last, weights[len(rows)-1])
	}
	// A constant on a mutually recursive predicate evaluates too (here the
	// program bottoms out empty: p2 needs p, which only p2 feeds).
	src2 := "p(x, z) :- p(x, y), p(y, z).\np(x, y) :- p2(x, y).\np2(x, y) :- edge(x, y), p(x, 1).\n?- p(x, y)."
	rows2, _ := drainProgram(t, db, src2)
	if len(rows2) != 0 {
		t.Fatalf("expected empty fixpoint, got %v", rows2)
	}
}

// TestNoSelectionRelationsRegistered pins the fix for the selection-relation
// registry leak: constants used to materialize `pred#σcol=val` copies into
// the working database, inflating every downstream resource gauge. With
// predicates pushed into the scans, materialization registers only derived
// predicates — and a user relation that happens to carry an old mangled name
// is never consulted.
func TestNoSelectionRelationsRegistered(t *testing.T) {
	db := baseDB(binRel("edge",
		[3]float64{0, 1, 1}, [3]float64{1, 2, 1}, [3]float64{2, 3, 1}))
	// A decoy under the legacy mangled name: if any code path still resolves
	// selection relations by name, it would pick this up and change results.
	decoy := binRel("edge#σ1=1", [3]float64{7, 7, 99}, [3]float64{8, 8, 99})
	db.AddRelation(decoy)
	src := "p(x) :- edge(x, 1).\n?- p(x)."
	rows, weights := drainProgram(t, db, src)
	if len(rows) != 1 || rows[0][0].(int64) != 0 || weights[0] != 1 {
		t.Fatalf("rows %v weights %v, want [[0]] [1]", rows, weights)
	}
	p, err := datalog.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := datalog.Materialize(db, p, dioid.Tropical{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range mat.DB.Names() {
		if name != "edge#σ1=1" && strings.Contains(name, "#σ") {
			t.Fatalf("selection relation %q registered in the working database", name)
		}
	}
	want := map[string]bool{"edge": true, "edge#σ1=1": true, "p": true, "goal": true}
	for _, name := range mat.DB.Names() {
		if !want[name] {
			t.Fatalf("unexpected relation %q registered (all: %v)", name, mat.DB.Names())
		}
	}
}

func TestFixpointDivergenceCap(t *testing.T) {
	old := datalog.MaxFixpointPasses
	datalog.MaxFixpointPasses = 8
	defer func() { datalog.MaxFixpointPasses = old }()
	db := baseDB(binRel("edge", [3]float64{0, 1, -1}, [3]float64{1, 0, -1}))
	p, err := datalog.ParseProgram(testkit.ReachabilityProgram)
	if err != nil {
		t.Fatal(err)
	}
	_, err = datalog.Materialize(db, p, dioid.Tropical{})
	if err == nil || !strings.Contains(err.Error(), "fixpoint") {
		t.Fatalf("negative cycle should hit the pass cap, got %v", err)
	}
}

func TestEvalErrors(t *testing.T) {
	db := baseDB(binRel("edge", [3]float64{0, 1, 1}))
	cases := []struct {
		src, want string
	}{
		{"p(x, y) :- nosuch(x, y).", "unknown predicate nosuch"},
		{"p(x) :- edge(x).", "arity"},
		{"edge(x, y) :- edge(y, x).\n?- edge(x, y).", "already a base relation"},
		{`p(x) :- edge(x, y), edge(1, 2).`, "binds no variables"},
	}
	for _, c := range cases {
		p, err := datalog.ParseProgram(c.src)
		if err != nil {
			t.Errorf("parse %q: %v", c.src, err)
			continue
		}
		_, err = datalog.Materialize(db, p, dioid.Tropical{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Materialize(%q) error = %v, want substring %q", c.src, err, c.want)
		}
	}
	// Non-identity-Lift dioids are rejected up front.
	p, err := datalog.ParseProgram("p(x, y) :- edge(x, y).\n?- p(x, y).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datalog.Materialize(db, p, dioid.Counting{}); err == nil || !strings.Contains(err.Error(), "identity") {
		t.Fatalf("Counting dioid accepted: %v", err)
	}
}

func TestWarmReevaluationAndInvalidation(t *testing.T) {
	edge := binRel("edge", [3]float64{0, 1, 1}, [3]float64{1, 2, 1})
	db := baseDB(edge)
	p, err := datalog.ParseProgram(testkit.ReachabilityProgram)
	if err != nil {
		t.Fatal(err)
	}
	cache := engine.NewCache(0)
	collect := func() []core.Row[float64] {
		it, err := datalog.Enumerate(db, p, dioid.Tropical{}, core.Take2, engine.Options{Parallelism: 1, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		return it.Drain(0)
	}
	first := collect()
	if len(first) != 3 {
		t.Fatalf("pairs: %v", first)
	}
	h0 := cache.Stats().Hits
	second := collect()
	testkit.CompareExact(t, "warm", dioid.Tropical{}, second, first)
	if h1 := cache.Stats().Hits; h1 < h0+2 {
		t.Fatalf("warm run should hit program memo and compiled plan: hits %d -> %d", h0, h1)
	}
	// Mutating the base database changes its version: the next evaluation
	// re-materializes and sees the new edge.
	edge.Add(1, 2, 3)
	third := collect()
	if len(third) != 6 {
		t.Fatalf("after mutation: %v", third)
	}
}

func TestStrataReport(t *testing.T) {
	db := baseDB(binRel("edge", [3]float64{0, 1, 1}, [3]float64{1, 2, 1}, [3]float64{2, 3, 1}))
	src := `
short(x, y) :- edge(x, y).
path(x, y) :- short(x, y).
path(x, z) :- path(x, y), short(y, z).
?- path(x, y).`
	p, err := datalog.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	it, err := datalog.Enumerate(db, p, dioid.Tropical{}, core.Take2, engine.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	st := it.Plan.Strata
	if len(st) != 2 {
		t.Fatalf("strata: %+v", st)
	}
	if st[0].Recursive || st[0].Tuples != 3 || st[0].Iterations != 1 || st[0].Predicates[0] != "short" {
		t.Fatalf("stratum 0: %+v", st[0])
	}
	if !st[1].Recursive || st[1].Tuples != 6 || st[1].Iterations < 3 || st[1].Rules != 2 {
		t.Fatalf("stratum 1: %+v", st[1])
	}
}
