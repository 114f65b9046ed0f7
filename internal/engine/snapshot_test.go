package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"anyk/internal/core"
	"anyk/internal/dioid"
	"anyk/internal/query"
	"anyk/internal/relation"
)

// TestOpenIteratorIsASnapshot: an iterator, once open, drains the rows of the
// database as it was when Enumerate returned, whatever SetAt and Add do to
// the source relations afterwards. A stage of every row borrows the
// relation's blocks as [:n:n] windows, which stay a snapshot because Add only
// appends past Size() and SetAt writes into a fresh copy of its column;
// filtered and projected stages gather blocks of their own. Covers the three
// ways a stage chooses its rows (all, a filtered scan, one per projected
// group), every route's plan cache state, and the parallel layer.
func TestOpenIteratorIsASnapshot(t *testing.T) {
	r := rand.New(rand.NewSource(2212))
	filtered, err := query.Parse("Q(x1,x2,x3) :- R1(x1,x2 | x1 > 0), R2(x2,x3)")
	if err != nil {
		t.Fatal(err)
	}
	projected, err := query.Parse("Q(x1,x2) :- R1(x1,x2), R2(x2,x3)")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		q    *query.CQ
		sem  Semantics
	}{
		{"plain", query.PathQuery(3), AllWeights},
		{"filtered", filtered, AllWeights},
		{"projected", projected, MinWeight},
	}
	for _, c := range cases {
		for _, par := range []int{1, 2} {
			for _, cached := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/p=%d/cache=%v", c.name, par, cached), func(t *testing.T) {
					db := intDB(r, c.q, 30, 4)
					opt := Options{Semantics: c.sem, Parallelism: par}
					if cached {
						opt.Cache = NewCache(8)
					}
					ref, err := Enumerate[float64](db, c.q, dioid.Tropical{}, core.Take2, opt)
					if err != nil {
						t.Fatal(err)
					}
					want := ref.Drain(0)
					if len(want) == 0 {
						t.Fatal("instance has no answers")
					}

					it, err := Enumerate[float64](db, c.q, dioid.Tropical{}, core.Take2, opt)
					if err != nil {
						t.Fatal(err)
					}
					defer it.Close()
					first, ok := it.Next()
					if !ok {
						t.Fatal("no first row")
					}
					got := []core.Row[float64]{first}
					for _, a := range c.q.Atoms {
						rel := db.Relation(a.Rel)
						for i := 0; i < rel.Size(); i++ {
							rel.SetAt(i, 0, relation.Value(99))
						}
						rel.Add(0, 99, 99)
					}
					got = append(got, it.Drain(0)...)
					if !reflect.DeepEqual(rowsOf(got), rowsOf(want)) {
						t.Fatalf("rows after mutating the source differ from the snapshot:\n got %v\nwant %v", rowsOf(got), rowsOf(want))
					}
				})
			}
		}
	}
}

// rowsOf formats rows for comparison (values and weight, in stream order).
func rowsOf(rows []core.Row[float64]) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r.Vals, r.Weight)
	}
	return out
}
