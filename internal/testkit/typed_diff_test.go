package testkit

import (
	"math/rand"
	"testing"

	"anyk/internal/dioid"
	"anyk/internal/relation"
)

// TestDifferentialTypedTwin is the tentpole differential of the typed value
// domain: for every family (covering the acyclic, simple-cycle, and GHD
// routes), a dictionary-encoded string/float/int database must produce
// ranked streams bit-identical (order and weights) to its hand-encoded int64
// twin, for every algorithm at parallelism 1, 2, and 4 — uncached and
// through the compiled-plan cache, whose hit behavior must also be
// untouched by typed schemas.
func TestDifferentialTypedTwin(t *testing.T) {
	r := rand.New(rand.NewSource(5001))
	for _, fam := range Families {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			for trial := 0; trial < 2; trial++ {
				q, db := Instance(t, fam, r)
				typedDB, twinDB := TypedTwin(t, q, db)
				DiffTypedTwin(t, q, typedDB, twinDB, dioid.Tropical{}, 1, 2, 4)
			}
		})
	}
}

// TestDifferentialTypedTwinLex repeats the typed differential under the
// lexicographic dioid: vector weights and the inverse-free candidate path
// must be equally blind to the logical domain.
func TestDifferentialTypedTwinLex(t *testing.T) {
	r := rand.New(rand.NewSource(5002))
	for _, fam := range []string{"path", "cycle"} {
		q, db := Instance(t, fam, r)
		typedDB, twinDB := TypedTwin(t, q, db)
		DiffTypedTwin(t, q, typedDB, twinDB, dioid.NewLex(len(q.Atoms)), 1, 4)
	}
}

// TestTypedTwinDecodesToLogicalDomain sanity-checks the twin generator
// itself: the typed database's relations decode back to the logical values
// the renderer wrote, with the types the variable rotation assigned.
func TestTypedTwinDecodesToLogicalDomain(t *testing.T) {
	r := rand.New(rand.NewSource(5003))
	q, db := Instance(t, "path", r)
	typedDB, twinDB := TypedTwin(t, q, db)
	vtype := varTypes(q)
	for _, a := range q.Atoms {
		typed, twin := typedDB.Relation(a.Rel), twinDB.Relation(a.Rel)
		if typed.Size() != twin.Size() {
			t.Fatalf("%s: typed %d rows, twin %d", a.Rel, typed.Size(), twin.Size())
		}
		for i := range typed.Size() {
			for c := range typed.Arity() {
				lv := typed.Dict.Decode(typed.ColType(c), typed.At(i, c))
				switch vtype[a.Vars[c]] {
				case relation.TypeString:
					if _, ok := lv.(string); !ok {
						t.Fatalf("%s row %d col %d: decoded %T, want string", a.Rel, i, c, lv)
					}
				case relation.TypeFloat64:
					if _, ok := lv.(float64); !ok {
						t.Fatalf("%s row %d col %d: decoded %T, want float64", a.Rel, i, c, lv)
					}
				default:
					if lv != db.Relation(a.Rel).At(i, c) {
						t.Fatalf("%s row %d col %d: int column changed value: %v", a.Rel, i, c, lv)
					}
				}
			}
			// Physical equality with the twin is the invariant everything
			// else rests on.
			for c := range typed.Row(i) {
				if typed.At(i, c) != twin.At(i, c) {
					t.Fatalf("%s row %d col %d: typed code %d != twin %d", a.Rel, i, c, typed.At(i, c), twin.At(i, c))
				}
			}
		}
	}
}
