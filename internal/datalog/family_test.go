package datalog_test

import (
	"fmt"
	"strings"
	"testing"

	"anyk/internal/core"
	"anyk/internal/datalog"
	"anyk/internal/dataset"
	"anyk/internal/dioid"
	"anyk/internal/engine"
	"anyk/internal/query"
	"anyk/internal/relation"
)

// TestFamilyPrograms checks every built-in family written as a one-goal
// program, `?- ` followed by the family's atoms: the goal must mirror the
// family CQ's atoms, and enumerating the program must produce the CQ's exact
// ranked stream.
func TestFamilyPrograms(t *testing.T) {
	for _, name := range []string{"path4", "star3", "cycle4", "cartesian3", "clique3"} {
		q, err := query.ParseFamily(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		atoms := make([]string, len(q.Atoms))
		for i, a := range q.Atoms {
			atoms[i] = a.String()
		}
		p, err := datalog.ParseProgram("?- " + strings.Join(atoms, ", ") + ".")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(p.Goal.Body) != len(q.Atoms) {
			t.Fatalf("%s: program goal has %d atoms, family CQ %d", name, len(p.Goal.Body), len(q.Atoms))
		}
		if len(p.Rules) != 0 {
			t.Fatalf("%s: goal-only program has %d rules", name, len(p.Rules))
		}
		db := dataset.Uniform(len(q.Atoms), 60, 5)
		if strings.HasPrefix(name, "cartesian") {
			// The Cartesian family joins unary relations, which no generator
			// produces; build small ones by hand.
			db = relation.NewDB()
			for i := 1; i <= len(q.Atoms); i++ {
				r := relation.New(fmt.Sprintf("R%d", i), "A1")
				for v := 0; v < 5; v++ {
					r.Add(float64((v*i)%7), int64(v))
				}
				db.AddRelation(r)
			}
		}
		want, err := engine.Enumerate[float64](db, q, dioid.Tropical{}, core.Take2, engine.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := datalog.Enumerate(db, p, dioid.Tropical{}, core.Take2, engine.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wr, gr := want.Drain(0), got.Drain(0)
		want.Close()
		got.Close()
		if len(wr) != len(gr) {
			t.Fatalf("%s: program enumerated %d rows, CQ %d", name, len(gr), len(wr))
		}
		for i := range wr {
			if wr[i].Weight != gr[i].Weight {
				t.Fatalf("%s rank %d: program weight %v, CQ %v", name, i, gr[i].Weight, wr[i].Weight)
			}
		}
	}
}
