// Package testkit is the cross-algorithm differential test harness: it
// generates seeded random instances of the paper's query families and asserts
// that every any-k algorithm — at every parallelism setting, including the
// fully serial 1 — emits the identical ranked weight sequence and row
// multiset as the Batch reference (materialize + sort), which is trivially
// correct and therefore anchors the whole enumeration stack. The engine's
// parallel layer (sharded DP build, loser-tree merge) is exactly the kind of
// change whose bugs produce *almost* sorted streams; a sequence-level
// differential against Batch is what pins it down.
//
// The helpers are exported so other packages' property tests (e.g. the GHD
// planner's) compare ranked streams through one comparator instead of ad-hoc
// loops.
package testkit

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"anyk/internal/core"
	"anyk/internal/dioid"
	"anyk/internal/engine"
	"anyk/internal/query"
	"anyk/internal/relation"
)

// Families lists the query families the harness draws instances from: the
// acyclic join-tree route (path, star), the simple-cycle heavy/light union
// (cycle), and the generalized hypertree planner (clique4 is cyclic but not a
// simple cycle). Together they cover every decomposition route of
// engine.Enumerate.
var Families = []string{"path", "star", "cycle", "clique"}

// Instance generates a random instance of family from r: query sizes and
// database shapes vary per draw, small enough that the Batch reference stays
// fast while join keys are shared (dom is small) so choice-set groups are
// non-trivial.
func Instance(t testing.TB, family string, r *rand.Rand) (*query.CQ, *relation.DB) {
	t.Helper()
	var q *query.CQ
	switch family {
	case "path":
		q = query.PathQuery(3 + r.Intn(3))
	case "star":
		q = query.StarQuery(3 + r.Intn(3))
	case "cycle":
		q = query.CycleQuery(4 + 2*r.Intn(2))
	case "clique":
		q = query.CliqueQuery(4)
	default:
		t.Fatalf("testkit: unknown family %q", family)
	}
	return q, RandomDB(r, q, 4+r.Intn(10), 2+r.Intn(3))
}

// RandomDB fills one relation per atom of q with rows random tuples over
// [0, dom) and small integer weights — integer-valued float64 arithmetic is
// exact, so cross-algorithm weight comparisons are exact too.
func RandomDB(r *rand.Rand, q *query.CQ, rows, dom int) *relation.DB {
	db := relation.NewDB()
	for _, a := range q.Atoms {
		if db.Relation(a.Rel) != nil {
			continue
		}
		attrs := make([]string, a.NumCols())
		for i := range attrs {
			attrs[i] = fmt.Sprintf("A%d", i+1)
		}
		rel := relation.New(a.Rel, attrs...)
		for k := 0; k < rows; k++ {
			vals := make([]relation.Value, len(attrs))
			for i := range vals {
				vals[i] = int64(r.Intn(dom))
			}
			rel.Add(float64(r.Intn(50)), vals...)
		}
		db.AddRelation(rel)
	}
	return db
}

// Collect enumerates q over db with the given algorithm and parallelism and
// returns the full ranked stream.
func Collect[W any](t testing.TB, db *relation.DB, q *query.CQ, d dioid.Dioid[W], alg core.Algorithm, parallelism int) []core.Row[W] {
	t.Helper()
	return CollectOpt(t, db, q, d, alg, engine.Options{Parallelism: parallelism})
}

// CollectOpt is Collect with explicit engine options (cache, dedup,
// semantics, parallelism).
func CollectOpt[W any](t testing.TB, db *relation.DB, q *query.CQ, d dioid.Dioid[W], alg core.Algorithm, opt engine.Options) []core.Row[W] {
	t.Helper()
	it, err := engine.Enumerate[W](db, q, d, alg, opt)
	if err != nil {
		t.Fatalf("testkit: enumerate %s/%v/p=%d: %v", q.Name, alg, opt.Parallelism, err)
	}
	defer it.Close()
	return it.Drain(0)
}

// Diff is the differential harness: every ranked algorithm, at every
// parallelism in ps, must emit a weight sequence order-equivalent to the
// serial Batch reference and the same multiset of row values. Weight
// *sequence* equality (not just sortedness) is the paper's contract — any-k
// must produce exactly the ranked output of materialize-and-sort.
func Diff[W any](t testing.TB, db *relation.DB, q *query.CQ, d dioid.Dioid[W], ps ...int) {
	t.Helper()
	if len(ps) == 0 {
		ps = []int{1, 4}
	}
	ref := Collect(t, db, q, d, core.Batch, 1)
	Reweigh(t, q.Name+"/Batch", db, q, d, ref)
	for _, alg := range core.Algorithms {
		for _, p := range ps {
			if alg == core.Batch && p == 1 {
				continue // the reference itself
			}
			got := Collect(t, db, q, d, alg, p)
			CompareRanked(t, fmt.Sprintf("%s/%v/p=%d", q.Name, alg, p), d, got, ref)
		}
	}
}

// DiffCached asserts that enumeration through a shared compiled-plan cache
// is invisible in the output: for every ranked algorithm at every
// parallelism in ps, both the cold (cache-filling) session and a warm
// session replaying the memoized plan and graphs must emit exactly the
// ranked stream of the serial, uncached Batch reference. One cache is
// shared across all algorithms and parallelism settings, so the plan layer
// (shared) and the graph layer (per shard layout) are both exercised.
func DiffCached[W any](t testing.TB, db *relation.DB, q *query.CQ, d dioid.Dioid[W], ps ...int) {
	t.Helper()
	if len(ps) == 0 {
		ps = []int{1, 4}
	}
	cache := engine.NewCache(0)
	ref := Collect(t, db, q, d, core.Batch, 1)
	Reweigh(t, q.Name+"/Batch", db, q, d, ref)
	for _, alg := range core.Algorithms {
		for _, p := range ps {
			opt := engine.Options{Parallelism: p, Cache: cache}
			cold := CollectOpt(t, db, q, d, alg, opt)
			CompareRanked(t, fmt.Sprintf("%s/%v/p=%d/cold", q.Name, alg, p), d, cold, ref)
			warm := CollectOpt(t, db, q, d, alg, opt)
			CompareRanked(t, fmt.Sprintf("%s/%v/p=%d/warm", q.Name, alg, p), d, warm, ref)
		}
	}
}

// CompareRanked asserts got matches the reference stream: same length,
// order-equivalent weight at every rank, and the same multiset of row values
// within each tie class (each maximal run of equal weights). Tied rows may
// permute, but no row may trade its values with a row of another weight.
func CompareRanked[W any](t testing.TB, label string, d dioid.Dioid[W], got, ref []core.Row[W]) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(ref))
	}
	for i := range got {
		if !dioid.Eq(d, got[i].Weight, ref[i].Weight) {
			t.Fatalf("%s: rank %d weight %v, want %v", label, i, got[i].Weight, ref[i].Weight)
		}
	}
	gk, rk := RowKeys(got), RowKeys(ref)
	for lo, hi := 0, 1; lo < len(ref); lo, hi = hi, hi+1 {
		for hi < len(ref) && dioid.Eq(d, ref[hi-1].Weight, ref[hi].Weight) {
			hi++
		}
		g, r := gk[lo:hi], rk[lo:hi]
		slices.Sort(g)
		slices.Sort(r)
		if !slices.Equal(g, r) {
			SameRows(t, fmt.Sprintf("%s: tie class at ranks %d..%d (weight %v)", label, lo, hi-1, ref[lo].Weight), g, r)
		}
	}
}

// Reweigh asserts that a full CQ's stream answers to the base relations, so
// that a reference stream is checked, not trusted. For every distinct value
// vector in rows, the multiset of the rows' weights must equal the multiset
// of ⊗-products, in atom order, of d.Lift(rel.Weights[r], i, r) over every
// combination of base rows r, one per atom i, that agree with the vector on
// the atom's bound columns: bag semantics, the way every route lifts tuple
// weights. It covers full CQs without predicates; row values are in
// q.Vars() order, as a full query's iterator emits them.
func Reweigh[W any](t testing.TB, label string, db *relation.DB, q *query.CQ, d dioid.Dioid[W], rows []core.Row[W]) {
	t.Helper()
	if !q.IsFull() {
		t.Fatalf("%s: Reweigh covers full queries only, got %s", label, q)
	}
	pos := map[string]int{}
	for i, v := range q.Vars() {
		pos[v] = i
	}
	weights := map[string][]W{}
	for _, row := range rows {
		k := fmt.Sprint(row.Vals)
		weights[k] = append(weights[k], row.Weight)
	}
	byRank := func(a, b W) int {
		if d.Less(a, b) {
			return -1
		}
		if d.Less(b, a) {
			return 1
		}
		return 0
	}
	for _, row := range rows {
		k := fmt.Sprint(row.Vals)
		have, ok := weights[k]
		if !ok {
			continue // vector already checked
		}
		delete(weights, k)
		want := []W{d.One()}
		for i, a := range q.Atoms {
			if len(a.Preds) > 0 {
				t.Fatalf("%s: Reweigh covers atoms without predicates, got %s", label, a)
			}
			rel := db.Relation(a.Rel)
			var next []W
			for r := 0; r < rel.Size(); r++ {
				agree := true
				for j, v := range a.Vars {
					agree = agree && rel.Col(a.VarCol(j))[r] == row.Vals[pos[v]]
				}
				if !agree {
					continue
				}
				for _, w := range want {
					next = append(next, d.Times(w, d.Lift(rel.Weights[r], i, int64(r))))
				}
			}
			want = next
		}
		slices.SortFunc(have, byRank)
		slices.SortFunc(want, byRank)
		if !slices.EqualFunc(have, want, func(a, b W) bool { return dioid.Eq(d, a, b) }) {
			t.Fatalf("%s: values %v carry weights %v, the base relations give %v", label, row.Vals, have, want)
		}
	}
}

// Ranked asserts the stream's weights are non-decreasing under d.
func Ranked[W any](t testing.TB, label string, d dioid.Dioid[W], rows []core.Row[W]) {
	t.Helper()
	for i := 1; i < len(rows); i++ {
		if d.Less(rows[i].Weight, rows[i-1].Weight) {
			t.Fatalf("%s: rank %d weight %v sorts before its predecessor %v", label, i, rows[i].Weight, rows[i-1].Weight)
		}
	}
}

// SameRows asserts got and want are equal as multisets of formatted rows.
func SameRows(t testing.TB, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	set := make(map[string]int, len(want))
	for _, k := range want {
		set[k]++
	}
	for _, k := range got {
		if set[k] == 0 {
			t.Fatalf("%s: unexpected row %s", label, k)
		}
		set[k]--
	}
}

// Key formats one row (values + scalar weight) for multiset comparison.
func Key(vals []relation.Value, w float64) string {
	return fmt.Sprintf("%v|%.6f", vals, w)
}

// RowKeys formats a stream's row values (weights excluded — ranks carry them)
// for multiset comparison.
func RowKeys[W any](rows []core.Row[W]) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r.Vals)
	}
	return out
}

// varTypes assigns each query variable a logical type in a fixed rotation
// (string, float64, int64), so typed instances exercise every type and every
// join stays type-consistent (a variable has one type wherever it appears).
func varTypes(q *query.CQ) map[string]relation.Type {
	rotation := []relation.Type{relation.TypeString, relation.TypeFloat64, relation.TypeInt64}
	out := map[string]relation.Type{}
	for i, v := range q.Vars() {
		out[v] = rotation[i%len(rotation)]
	}
	return out
}

// TypedTwin renders (q, db) into two databases with identical physical
// contents arrived at through opposite routes:
//
//   - typedDB: each relation's int64 values are mapped to logical values per
//     the variable's assigned type (v -> "n<v>" for strings, v+0.25 for
//     floats, v for ints), written as CSV text, and ingested through
//     LoadCSVTyped — the full sniff-and-dictionary-encode pipeline;
//   - twinDB: plain int64 relations whose rows are, by hand, exactly the
//     dense codes the dictionary assigns (first-appearance order, which the
//     CSV scan order makes deterministic).
//
// Because the enumeration core sees only physical rows and weights, every
// algorithm must produce bit-identical ranked streams over the two — the
// tentpole invariant of the typed-domain refactor.
func TypedTwin(t testing.TB, q *query.CQ, db *relation.DB) (typedDB, twinDB *relation.DB) {
	t.Helper()
	vtype := varTypes(q)
	typedDB, twinDB = relation.NewDB(), relation.NewDB()
	for _, a := range q.Atoms {
		src := db.Relation(a.Rel)
		if src == nil {
			t.Fatalf("testkit: relation %s missing from instance db", a.Rel)
		}
		if typedDB.Relation(a.Rel) != nil {
			continue // self-join atom: already rendered
		}
		var buf bytes.Buffer
		for i := range src.Size() {
			for c, v := range src.Row(i) {
				switch vtype[a.Vars[c]] {
				case relation.TypeString:
					fmt.Fprintf(&buf, "n%03d,", v)
				case relation.TypeFloat64:
					fmt.Fprintf(&buf, "%g,", float64(v)+0.25)
				default:
					fmt.Fprintf(&buf, "%d,", v)
				}
			}
			fmt.Fprintf(&buf, "%g\n", src.Weights[i])
		}
		typed, err := relation.LoadCSVTyped(&buf, typedDB.Dict(), a.Rel, src.Attrs...)
		if err != nil {
			t.Fatalf("testkit: typed render of %s: %v", a.Rel, err)
		}
		for c := range src.Attrs {
			if want := vtype[a.Vars[c]]; typed.ColType(c) != want {
				t.Fatalf("testkit: %s col %d sniffed as %s, want %s", a.Rel, c, typed.ColType(c), want)
			}
		}
		twin := relation.New(a.Rel, src.Attrs...)
		for i := range typed.Size() {
			twin.Add(typed.Weights[i], typed.Row(i)...)
		}
		typedDB.AddRelation(typed)
		twinDB.AddRelation(twin)
	}
	return typedDB, twinDB
}

// CompareExact asserts two streams are bit-identical: same length and, at
// every rank, order-equivalent weights and equal value vectors. Stronger
// than CompareRanked (which allows tied rows to permute): it is the right
// comparison when both streams were produced from identical physical inputs,
// where even tie resolution must agree.
func CompareExact[W any](t testing.TB, label string, d dioid.Dioid[W], got, ref []core.Row[W]) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(ref))
	}
	for i := range got {
		if !dioid.Eq(d, got[i].Weight, ref[i].Weight) {
			t.Fatalf("%s: rank %d weight %v, want %v", label, i, got[i].Weight, ref[i].Weight)
		}
		if len(got[i].Vals) != len(ref[i].Vals) {
			t.Fatalf("%s: rank %d arity %d, want %d", label, i, len(got[i].Vals), len(ref[i].Vals))
		}
		for c := range got[i].Vals {
			if got[i].Vals[c] != ref[i].Vals[c] {
				t.Fatalf("%s: rank %d vals %v, want %v", label, i, got[i].Vals, ref[i].Vals)
			}
		}
	}
}

// DiffTypedTwin runs the typed-domain differential: for every ranked
// algorithm at every parallelism in ps, the dictionary-encoded database and
// its hand-encoded int64 twin must emit bit-identical ranked streams (order
// and weights), uncached and through a shared compiled-plan cache (cold and
// warm), with identical cache hit/miss behavior.
func DiffTypedTwin[W any](t testing.TB, q *query.CQ, typedDB, twinDB *relation.DB, d dioid.Dioid[W], ps ...int) {
	t.Helper()
	if len(ps) == 0 {
		ps = []int{1, 2, 4}
	}
	typedCache, twinCache := engine.NewCache(0), engine.NewCache(0)
	for _, alg := range core.Algorithms {
		for _, p := range ps {
			label := fmt.Sprintf("%s/%v/p=%d", q.Name, alg, p)
			ref := Collect(t, twinDB, q, d, alg, p)
			got := Collect(t, typedDB, q, d, alg, p)
			CompareExact(t, label+"/uncached", d, got, ref)
			for _, run := range []string{"cold", "warm"} {
				got := CollectOpt(t, typedDB, q, d, alg, engine.Options{Parallelism: p, Cache: typedCache})
				ref := CollectOpt(t, twinDB, q, d, alg, engine.Options{Parallelism: p, Cache: twinCache})
				CompareExact(t, label+"/"+run, d, got, ref)
			}
		}
	}
	// Typed schemas must be invisible to the plan cache: the same call
	// sequence over the typed and twin databases produces the same hit/miss
	// stream and the same resident entry count.
	ts, ws := typedCache.Stats(), twinCache.Stats()
	if ts.Hits != ws.Hits || ts.Misses != ws.Misses || ts.Entries != ws.Entries {
		t.Fatalf("%s: plan-cache behavior diverged: typed %+v vs int64 twin %+v", q.Name, ts, ws)
	}
	if ts.Hits == 0 {
		t.Fatalf("%s: warm runs never hit the plan cache (stats %+v)", q.Name, ts)
	}
}

// FilteredTwin materializes q's selection predicates away: every atom with
// predicates gets a fresh relation holding exactly its qualifying rows (in
// the original scan order, sharing the source dictionary so physical codes
// are preserved), and the twin query references those relations with the
// predicates stripped. Because FilterScan yields row ids in ascending order,
// the pushdown engine sees stage-input sequences elementwise identical to the
// twin's, so every algorithm must produce bit-identical ranked streams over
// the two — the correctness contract of predicate pushdown.
//
// Row-id–dependent dioids (Tie) are out of scope: the twin renumbers rows, so
// Lift sees different ids by construction. Use scalar dioids or Lex.
func FilteredTwin(t testing.TB, q *query.CQ, db *relation.DB) (*query.CQ, *relation.DB) {
	t.Helper()
	twinDB := db.Clone()
	atoms := make([]query.Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		atoms[i] = query.Atom{Rel: a.Rel, Vars: a.Vars, Cols: a.Cols}
		if len(a.Preds) == 0 {
			continue
		}
		src := db.Relation(a.Rel)
		if src == nil {
			t.Fatalf("testkit: relation %s missing from instance db", a.Rel)
		}
		preds, err := a.ScanPreds(src)
		if err != nil {
			t.Fatalf("testkit: compile predicates of %s: %v", a, err)
		}
		dict := src.Dict
		if dict == nil {
			dict = twinDB.Dict()
		}
		types := make([]relation.Type, src.Arity())
		for c := range types {
			types[c] = src.ColType(c)
		}
		name := fmt.Sprintf("%s_flt%d", a.Rel, i)
		flt, err := relation.NewTyped(name, dict, src.Attrs, types)
		if err != nil {
			t.Fatalf("testkit: twin relation %s: %v", name, err)
		}
		for j := 0; j < src.Size(); j++ {
			if src.MatchRow(j, preds) {
				flt.Add(src.Weights[j], src.Row(j)...)
			}
		}
		twinDB.AddRelation(flt)
		atoms[i].Rel = name
	}
	return query.NewCQ(q.Name+"twin", q.Free, atoms...), twinDB
}

// DiffFilteredTwin runs the pushdown differential: for every ranked algorithm
// at every parallelism in ps, enumeration of q with predicates pushed into
// the scans must be bit-identical — order, weights, and tie resolution — to
// enumeration of the pre-materialized FilteredTwin, uncached and through a
// compiled-plan cache (cold and warm, separate caches per side).
func DiffFilteredTwin[W any](t testing.TB, q *query.CQ, db *relation.DB, d dioid.Dioid[W], sem engine.Semantics, ps ...int) {
	t.Helper()
	if len(ps) == 0 {
		ps = []int{1, 2, 4}
	}
	tq, twinDB := FilteredTwin(t, q, db)
	pushCache, twinCache := engine.NewCache(0), engine.NewCache(0)
	for _, alg := range core.Algorithms {
		for _, p := range ps {
			label := fmt.Sprintf("%s/%v/p=%d", q.Name, alg, p)
			ref := CollectOpt(t, twinDB, tq, d, alg, engine.Options{Parallelism: p, Semantics: sem})
			got := CollectOpt(t, db, q, d, alg, engine.Options{Parallelism: p, Semantics: sem})
			CompareExact(t, label+"/uncached", d, got, ref)
			for _, run := range []string{"cold", "warm"} {
				got := CollectOpt(t, db, q, d, alg, engine.Options{Parallelism: p, Semantics: sem, Cache: pushCache})
				ref := CollectOpt(t, twinDB, tq, d, alg, engine.Options{Parallelism: p, Semantics: sem, Cache: twinCache})
				CompareExact(t, label+"/"+run, d, got, ref)
			}
		}
	}
}

// ProjectedInstance generates a random free-connex projection instance:
// family "path" or "star" with the head restricted to a prefix of the
// variables (1 or 2 of them), which keeps the extended hypergraph acyclic so
// MinWeight semantics apply.
func ProjectedInstance(t testing.TB, family string, r *rand.Rand) (*query.CQ, *relation.DB) {
	t.Helper()
	var q *query.CQ
	switch family {
	case "path":
		q = query.PathQuery(3 + r.Intn(3))
	case "star":
		q = query.StarQuery(3 + r.Intn(3))
	default:
		t.Fatalf("testkit: no projected variant of family %q", family)
	}
	free := q.Vars()[:1+r.Intn(2)]
	q = query.NewCQ(q.Name+"proj", free, q.Atoms...)
	if !query.IsFreeConnex(q) {
		t.Fatalf("testkit: %s is not free-connex", q)
	}
	return q, RandomDB(r, q, 4+r.Intn(10), 2+r.Intn(3))
}

// MinWeightOracle computes the expected MinWeight stream from first
// principles: enumerate the full query with Batch, project every witness
// onto the free variables, keep each distinct projection's Plus-fold of its
// witness weights (fold in witness rank order, matching the engine's scan
// order for tie-breaking dioids), and sort by weight. It is independent of
// the connex-plan machinery under test.
func MinWeightOracle[W any](t testing.TB, db *relation.DB, q *query.CQ, d dioid.Dioid[W]) []core.Row[W] {
	t.Helper()
	full := query.NewCQ(q.Name+"full", nil, q.Atoms...)
	vars := full.Vars()
	pos := make([]int, 0, len(q.FreeVars()))
	for _, fv := range q.FreeVars() {
		for i, v := range vars {
			if v == fv {
				pos = append(pos, i)
				break
			}
		}
	}
	witnesses := Collect(t, db, full, d, core.Batch, 1)
	order := []string{}
	folded := map[string]core.Row[W]{}
	for _, w := range witnesses {
		proj := make([]relation.Value, len(pos))
		for i, p := range pos {
			proj[i] = w.Vals[p]
		}
		k := fmt.Sprint(proj)
		if prev, ok := folded[k]; ok {
			prev.Weight = d.Plus(prev.Weight, w.Weight)
			folded[k] = prev
			continue
		}
		order = append(order, k)
		folded[k] = core.Row[W]{Vals: proj, Weight: w.Weight}
	}
	out := make([]core.Row[W], 0, len(folded))
	for _, k := range order {
		out = append(out, folded[k])
	}
	sort.SliceStable(out, func(i, j int) bool { return d.Less(out[i].Weight, out[j].Weight) })
	return out
}

// DiffProjected runs the projection-semantics differential matrix: every
// ranked algorithm × every parallelism in ps × {uncached, cached cold,
// cached warm} must emit the ranked stream of the serial Batch reference
// under the given semantics — and, for MinWeight, of the independent oracle.
func DiffProjected[W any](t testing.TB, db *relation.DB, q *query.CQ, d dioid.Dioid[W], sem engine.Semantics, ps ...int) {
	t.Helper()
	if len(ps) == 0 {
		ps = []int{1, 2, 4}
	}
	ref := CollectOpt(t, db, q, d, core.Batch, engine.Options{Parallelism: 1, Semantics: sem})
	if sem == engine.MinWeight {
		CompareRanked(t, q.Name+"/batch-vs-oracle", d, ref, MinWeightOracle(t, db, q, d))
	}
	cache := engine.NewCache(0)
	for _, alg := range core.Algorithms {
		for _, p := range ps {
			label := fmt.Sprintf("%s/sem=%v/%v/p=%d", q.Name, sem, alg, p)
			got := CollectOpt(t, db, q, d, alg, engine.Options{Parallelism: p, Semantics: sem})
			CompareRanked(t, label+"/uncached", d, got, ref)
			cold := CollectOpt(t, db, q, d, alg, engine.Options{Parallelism: p, Semantics: sem, Cache: cache})
			CompareRanked(t, label+"/cold", d, cold, ref)
			warm := CollectOpt(t, db, q, d, alg, engine.Options{Parallelism: p, Semantics: sem, Cache: cache})
			CompareRanked(t, label+"/warm", d, warm, ref)
		}
	}
}
