package join

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"anyk/internal/query"
	"anyk/internal/relation"
)

// naive evaluates a full CQ by brute-force backtracking over atoms — the
// ground truth for all join algorithms.
func naive(db *relation.DB, q *query.CQ) []Result {
	vars := q.Vars()
	varPos := map[string]int{}
	for i, v := range vars {
		varPos[v] = i
	}
	assignment := make([]relation.Value, len(vars))
	bound := make([]bool, len(vars))
	var out []Result
	var rec func(ai int, w float64)
	rec = func(ai int, w float64) {
		if ai == len(q.Atoms) {
			out = append(out, Result{Vals: append([]relation.Value(nil), assignment...), Weight: w})
			return
		}
		a := q.Atoms[ai]
		r := db.Relation(a.Rel)
		for ri := range r.Size() {
			row := r.Row(ri)
			okRow := true
			var newly []int
			for c, v := range a.Vars {
				p := varPos[v]
				if bound[p] {
					if assignment[p] != row[c] {
						okRow = false
						break
					}
				} else {
					assignment[p] = row[c]
					bound[p] = true
					newly = append(newly, p)
				}
			}
			if okRow {
				rec(ai+1, w+r.Weights[ri])
			}
			for _, p := range newly {
				bound[p] = false
			}
		}
	}
	rec(0, 0)
	return out
}

func resultKeyed(rs []Result) map[string][]float64 {
	m := map[string][]float64{}
	for _, r := range rs {
		k := fmt.Sprint(r.Vals)
		m[k] = append(m[k], r.Weight)
	}
	for _, ws := range m {
		sort.Float64s(ws)
	}
	return m
}

func sameResults(t *testing.T, tag string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", tag, len(got), len(want))
	}
	gm, wm := resultKeyed(got), resultKeyed(want)
	if len(gm) != len(wm) {
		t.Fatalf("%s: %d distinct rows, want %d", tag, len(gm), len(wm))
	}
	for k, ws := range wm {
		gws := gm[k]
		if len(gws) != len(ws) {
			t.Fatalf("%s: row %s has %d witnesses, want %d", tag, k, len(gws), len(ws))
		}
		for i := range ws {
			if gws[i] != ws[i] {
				t.Fatalf("%s: row %s weights %v, want %v", tag, k, gws, ws)
			}
		}
	}
}

func randomDB(r *rand.Rand, q *query.CQ, rows, dom int) *relation.DB {
	db := relation.NewDB()
	for _, a := range q.Atoms {
		if db.Relation(a.Rel) != nil {
			continue // self-join: one physical relation
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
			rel.Add(float64(r.Intn(30)), vals...)
		}
		db.AddRelation(rel)
	}
	return db
}

func TestGenericJoinMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	queries := []*query.CQ{
		query.PathQuery(2), query.PathQuery(4),
		query.StarQuery(3), query.CycleQuery(3), query.CycleQuery(4),
		query.CartesianQuery(2),
		// triangle with a covering ternary atom
		query.NewCQ("tri", nil,
			query.Atom{Rel: "E1", Vars: []string{"a", "b"}},
			query.Atom{Rel: "E2", Vars: []string{"b", "c"}},
			query.Atom{Rel: "E3", Vars: []string{"a", "c"}},
		),
	}
	for _, q := range queries {
		for trial := 0; trial < 5; trial++ {
			db := randomDB(r, q, 3+r.Intn(15), 1+r.Intn(4))
			got, err := GenericJoin(db, q)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			sameResults(t, "GenericJoin/"+q.Name, got, naive(db, q))
		}
	}
}

func TestGenericJoinSelfJoin(t *testing.T) {
	// 4-cycle with all atoms on the same edge relation.
	q := query.NewCQ("selfcycle", nil,
		query.Atom{Rel: "E", Vars: []string{"a", "b"}},
		query.Atom{Rel: "E", Vars: []string{"b", "c"}},
		query.Atom{Rel: "E", Vars: []string{"c", "d"}},
		query.Atom{Rel: "E", Vars: []string{"d", "a"}},
	)
	r := rand.New(rand.NewSource(3))
	db := randomDB(r, q, 20, 4)
	got, err := GenericJoin(db, q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "selfjoin", got, naive(db, q))
}

func TestYannakakisMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, q := range []*query.CQ{query.PathQuery(2), query.PathQuery(5), query.StarQuery(4), query.CartesianQuery(3)} {
		for trial := 0; trial < 5; trial++ {
			db := randomDB(r, q, 3+r.Intn(12), 1+r.Intn(4))
			got, err := Yannakakis(db, q)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "Yannakakis/"+q.Name, got, naive(db, q))
		}
	}
	if _, err := Yannakakis(relation.NewDB(), query.CycleQuery(4)); err == nil {
		t.Fatal("Yannakakis must reject cyclic queries")
	}
}

func TestSortResults(t *testing.T) {
	rs := []Result{{Weight: 3}, {Weight: 1}, {Weight: 2}}
	SortResults(rs)
	if rs[0].Weight != 1 || rs[2].Weight != 3 {
		t.Fatalf("not sorted: %v", rs)
	}
}

func TestGenericJoinMissingRelation(t *testing.T) {
	if _, err := GenericJoin(relation.NewDB(), query.PathQuery(2)); err == nil {
		t.Fatal("expected missing-relation error")
	}
}
