package engine_test

// Lowering borrows the column and weight blocks of the relations it reads
// (stage inputs alias them as [:n:n] windows). These tests hold the two sides
// of that contract: nothing downstream ever writes through a borrowed block,
// and a relation that grows under an open iterator does not disturb it.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"anyk/internal/core"
	"anyk/internal/datalog"
	"anyk/internal/dioid"
	"anyk/internal/engine"
	"anyk/internal/query"
	"anyk/internal/relation"
	"anyk/internal/testkit"
)

// relCopy is a deep copy of one relation's storage: every column block and
// the weights.
type relCopy struct {
	cols    [][]relation.Value
	weights []float64
}

func copyOf(rel *relation.Relation) relCopy {
	c := relCopy{weights: append([]float64(nil), rel.Weights...)}
	for i := 0; i < rel.Arity(); i++ {
		c.cols = append(c.cols, append([]relation.Value(nil), rel.Col(i)...))
	}
	return c
}

func copyRelations(db *relation.DB) map[string]relCopy {
	out := map[string]relCopy{}
	for _, name := range db.Names() {
		out[name] = copyOf(db.Relation(name))
	}
	return out
}

// requireUnchanged fails unless every relation of db still equals its copy.
func requireUnchanged(t *testing.T, label string, db *relation.DB, before map[string]relCopy) {
	t.Helper()
	for name, want := range before {
		if got := copyOf(db.Relation(name)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: relation %s changed under enumeration:\n got %v\nwant %v", label, name, got, want)
		}
	}
}

func mustParse(t *testing.T, src string) *query.CQ {
	t.Helper()
	q, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// drainRows enumerates q over db and returns the number of rows.
func drainRows[W any](t *testing.T, label string, db *relation.DB, q *query.CQ, d dioid.Dioid[W], alg core.Algorithm, opt engine.Options) int {
	t.Helper()
	it, err := engine.Enumerate[W](db, q, d, alg, opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	defer it.Close()
	return len(it.Drain(0))
}

// TestEnumerateNeverWritesItsInputs drains every lowering shape — a stage of
// every row (which borrows), a filtered and a projected one (which gather),
// the simple-cycle and GHD routes, and a Datalog goal over derived relations
// — under every algorithm, p ∈ {1, 4}, with and without the plan cache, and
// Tropical (whose weights are borrowed too) and Lex (whose are lifted). The
// source relations must come out bit-identical: a write through a borrowed
// block anywhere downstream fails here.
func TestEnumerateNeverWritesItsInputs(t *testing.T) {
	r := rand.New(rand.NewSource(5150))
	projected := mustParse(t, "Q(x1,x2) :- R1(x1,x2), R2(x2,x3)")
	cases := []struct {
		name string
		q    *query.CQ
		sem  engine.Semantics
	}{
		{"plain", query.PathQuery(4), engine.AllWeights},
		{"filtered", mustParse(t, "Q(*) :- R1(x1,x2 | x1 > 0), R2(x2,x3), R3(x3,x4 | x4 != 1)"), engine.AllWeights},
		{"projected-min", projected, engine.MinWeight},
		{"projected-all", projected, engine.AllWeights},
		{"cycle", query.CycleQuery(4), engine.AllWeights},
		{"tritail", mustParse(t, "Q(*) :- E1(a,b), E2(b,c), E3(c,a), E4(c,d)"), engine.AllWeights},
	}
	for _, c := range cases {
		db := testkit.RandomDB(r, c.q, 12, 3)
		before := copyRelations(db)
		cache := engine.NewCache(0)
		for _, alg := range core.Algorithms {
			for _, p := range []int{1, 4} {
				for _, cached := range []bool{false, true} {
					label := fmt.Sprintf("%s/%v/p=%d/cache=%v", c.name, alg, p, cached)
					opt := engine.Options{Semantics: c.sem, Parallelism: p}
					if cached {
						opt.Cache = cache
					}
					if drainRows[float64](t, label, db, c.q, dioid.Tropical{}, alg, opt) == 0 {
						t.Fatalf("%s: instance has no answers", label)
					}
					drainRows[dioid.Vec](t, label+"/Lex", db, c.q, dioid.NewLex(len(c.q.Atoms)), alg, opt)
					requireUnchanged(t, label, db, before)
				}
			}
		}
	}

	db := testkit.RandomDB(r, mustParse(t, "Q(*) :- r1(x,y), r2(y,z), r3(z,u)"), 12, 3)
	before := copyRelations(db)
	prog, err := datalog.ParseProgram(`
hop(x, z) :- r1(x, y), r2(y, z).
answer(x, z, u) :- hop(x, z), r3(z, u).`)
	if err != nil {
		t.Fatal(err)
	}
	cache := engine.NewCache(0)
	for _, alg := range core.Algorithms {
		for _, p := range []int{1, 4} {
			for _, cached := range []bool{false, true} {
				label := fmt.Sprintf("datalog/%v/p=%d/cache=%v", alg, p, cached)
				opt := engine.Options{Parallelism: p}
				if cached {
					opt.Cache = cache
				}
				it, err := datalog.Enumerate(db, prog, dioid.Tropical{}, alg, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(it.Drain(0)) == 0 {
					t.Fatalf("%s: program has no answers", label)
				}
				it.Close()
				requireUnchanged(t, label, db, before)
			}
		}
	}
}

// TestBorrowedIteratorSurvivesAdd: with room reserved (Grow), Add writes its
// rows into the very backing arrays an open iterator borrowed, just past the
// iterator's windows. An iterator draining while another goroutine appends
// must still emit the stream of the database as it was when it opened, and
// under -race the two goroutines must touch no common word.
func TestBorrowedIteratorSurvivesAdd(t *testing.T) {
	const extra = 500
	q := query.PathQuery(3)
	for _, alg := range []core.Algorithm{core.Take2, core.Recursive} {
		for _, p := range []int{1, 4} {
			label := fmt.Sprintf("%v/p=%d", alg, p)
			db := testkit.RandomDB(rand.New(rand.NewSource(77)), q, 60, 6)
			opt := engine.Options{Parallelism: p}
			want := testkit.CollectOpt(t, db, q, dioid.Tropical{}, alg, opt)
			var rels []*relation.Relation
			var bases []*relation.Value
			for _, name := range db.Names() {
				rel := db.Relation(name)
				rel.Grow(extra)
				rels = append(rels, rel)
				bases = append(bases, &rel.Col(0)[0])
			}
			it, err := engine.Enumerate[float64](db, q, dioid.Tropical{}, alg, opt)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < extra; i++ {
					for _, rel := range rels {
						rel.Add(0, relation.Value(i%6), relation.Value(i%5))
					}
				}
			}()
			got := it.Drain(0)
			wg.Wait()
			it.Close()
			for i, rel := range rels {
				if &rel.Col(0)[0] != bases[i] {
					t.Fatalf("%s: Add moved %s's column instead of writing past the borrowed window", label, rel.Name)
				}
			}
			testkit.CompareExact(t, label, dioid.Tropical{}, got, want)
		}
	}
}
