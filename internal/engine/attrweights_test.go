package engine

import (
	"math/rand"
	"testing"

	"anyk/internal/core"
	"anyk/internal/dioid"
	"anyk/internal/join"
	"anyk/internal/query"
	"anyk/internal/relation"
)

func TestAttributeWeights(t *testing.T) {
	// Example 16-style: Q(x,y) :- R(x,y) with weights on both attributes.
	r := rand.New(rand.NewSource(91))
	db := relation.NewDB()
	rel := relation.New("R", "A", "B")
	for i := 0; i < 30; i++ {
		rel.Add(float64(r.Intn(10)), int64(r.Intn(5)), int64(r.Intn(5)))
	}
	db.AddRelation(rel)
	q := query.NewCQ("Q", nil, query.Atom{Rel: "R", Vars: []string{"x", "y"}})
	wx := func(v relation.Value) float64 { return float64(v * 100) }
	wy := func(v relation.Value) float64 { return float64(v * 3) }
	ndb, nq, err := WithAttributeWeights(db, q, map[string]func(relation.Value) float64{
		"x": wx, "y": wy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(nq.Atoms) != 3 || !query.IsAcyclic(nq) {
		t.Fatalf("extended query wrong: %s", nq)
	}
	it, err := Enumerate[float64](ndb, nq, dioid.Tropical{}, core.Take2)
	if err != nil {
		t.Fatal(err)
	}
	got := it.Drain(0)
	if len(got) != rel.Size() {
		t.Fatalf("%d results, want %d", len(got), rel.Size())
	}
	// Expected ranking: tuple weight + 100x + 3y, ascending.
	prev := -1.0
	for _, row := range got {
		x, y := row.Vals[0], row.Vals[1]
		// recover the tuple weight: weight - attr contributions must match
		// some R row with these values
		base := row.Weight - wx(x) - wy(y)
		found := false
		for i := range rel.Size() {
			rrow := rel.Row(i)
			if rrow[0] == x && rrow[1] == y && rel.Weights[i] == base {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("row %v weight %v has no witness", row.Vals, row.Weight)
		}
		if row.Weight < prev {
			t.Fatal("not ranked")
		}
		prev = row.Weight
	}
}

func TestAttributeWeightsOnJoin(t *testing.T) {
	// 2-path with a weight on the join variable: charged once even though
	// the variable occurs in two atoms.
	r := rand.New(rand.NewSource(92))
	q := query.PathQuery(2)
	db := intDB(r, q, 15, 3)
	ndb, nq, err := WithAttributeWeights(db, q, map[string]func(relation.Value) float64{
		"x2": func(v relation.Value) float64 { return float64(v) * 1000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	it, err := Enumerate[float64](ndb, nq, dioid.Tropical{}, core.Recursive)
	if err != nil {
		t.Fatal(err)
	}
	got := it.Drain(0)
	want, _ := join.Yannakakis(db, q)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for _, row := range got {
		// output vars of nq: x1,x2,x3 first
		x2 := row.Vals[1]
		base := row.Weight - float64(x2)*1000
		found := false
		for _, w := range want {
			if w.Vals[0] == row.Vals[0] && w.Vals[1] == x2 && w.Vals[2] == row.Vals[2] && w.Weight == base {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("row %v weight %v unexplained", row.Vals, row.Weight)
		}
	}
}

func TestAttributeWeightsErrors(t *testing.T) {
	db := relation.NewDB()
	rel := relation.New("R", "A")
	rel.Add(1, 1)
	db.AddRelation(rel)
	q := query.NewCQ("Q", nil, query.Atom{Rel: "R", Vars: []string{"x"}})
	if _, _, err := WithAttributeWeights(db, q, map[string]func(relation.Value) float64{
		"nope": func(relation.Value) float64 { return 0 },
	}); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if _, _, err := WithAttributeWeights(db, query.NewCQ("Q", nil, query.Atom{Rel: "missing", Vars: []string{"x"}}),
		map[string]func(relation.Value) float64{"x": func(relation.Value) float64 { return 0 }}); err == nil {
		t.Fatal("missing relation accepted")
	}
}
