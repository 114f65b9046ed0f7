package core

import (
	"math/rand"
	"testing"

	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
)

// monoid wraps a dioid and hides any inverse it may have: type assertions to
// dioid.Group[W] fail on the wrapper, so anyK-part falls back to the O(ℓ)
// candidate-priority recomputation of Section 6.2.
type monoid[W any] struct {
	inner dioid.Dioid[W]
}

// asMonoid wraps d so that it no longer advertises an inverse.
func asMonoid[W any](d dioid.Dioid[W]) monoid[W] { return monoid[W]{inner: d} }

func (m monoid[W]) Plus(a, b W) W                         { return m.inner.Plus(a, b) }
func (m monoid[W]) Times(a, b W) W                        { return m.inner.Times(a, b) }
func (m monoid[W]) Zero() W                               { return m.inner.Zero() }
func (m monoid[W]) One() W                                { return m.inner.One() }
func (m monoid[W]) Less(a, b W) bool                      { return m.inner.Less(a, b) }
func (m monoid[W]) Lift(w float64, stage int, id int64) W { return m.inner.Lift(w, stage, id) }

// TestInverseFreeFallbackMatchesDeltaPath runs every anyK-part variant under
// both the group dioid (O(1) priority deltas, Section 6.2) and the same
// dioid wrapped as a pure monoid (O(ℓ) prefix-walk recomputation) and checks
// the rankings are identical. This exercises the fallback on path, star and
// general tree shapes.
func TestInverseFreeFallbackMatchesDeltaPath(t *testing.T) {
	r := rand.New(rand.NewSource(111))
	grp := dioid.Tropical{}
	mon := asMonoid[float64](grp)
	if _, ok := any(mon).(dioid.Group[float64]); ok {
		t.Fatal("monoid wrapper must not advertise an inverse")
	}
	for trial := 0; trial < 25; trial++ {
		inputs := randomInputs(r, 2+r.Intn(4), 1+r.Intn(10), 1+r.Intn(4))
		gGrp, err := dpgraph.Build[float64](grp, inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		gGrp.BottomUp()
		gMon, err := dpgraph.Build[float64](mon, inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		gMon.BottomUp()
		for _, alg := range []Algorithm{Take2, Lazy, Eager, All} {
			pe := newPart(gGrp, alg)
			if pe.grp == nil {
				t.Fatal("group dioid not detected")
			}
			pm := newPart(gMon, alg)
			if pm.grp != nil {
				t.Fatal("monoid wrapper detected as group")
			}
			a := drain(pe, 1<<30)
			b := drain(pm, 1<<30)
			if len(a) != len(b) {
				t.Fatalf("trial %d %v: %d vs %d solutions", trial, alg, len(a), len(b))
			}
			for i := range a {
				if a[i].Weight != b[i].Weight {
					t.Fatalf("trial %d %v rank %d: delta=%v recompute=%v", trial, alg, i, a[i].Weight, b[i].Weight)
				}
			}
		}
	}
}

// TestBooleanDioidEnumeratesEverything: under the Boolean dioid (no inverse,
// inverted order) any-k degenerates to unranked enumeration and must still
// produce the full result set exactly once.
func TestBooleanDioidEnumeratesEverything(t *testing.T) {
	r := rand.New(rand.NewSource(112))
	for trial := 0; trial < 10; trial++ {
		inputsF := randomInputs(r, 2+r.Intn(3), 1+r.Intn(8), 1+r.Intn(3))
		gF, err := dpgraph.Build[float64](dioid.Tropical{}, inputsF, nil)
		if err != nil {
			t.Fatal(err)
		}
		gF.BottomUp()
		want := len(bruteForce(gF))
		// same instance under the Boolean dioid
		inputsB := make([]dpgraph.StageInput[bool], len(inputsF))
		for i, in := range inputsF {
			inputsB[i] = dpgraph.StageInput[bool]{
				Name: in.Name, Vars: in.Vars, Rows: in.Rows, Parent: in.Parent,
				Weights: make([]bool, len(in.Rows)),
			}
			for j := range inputsB[i].Weights {
				inputsB[i].Weights[j] = true
			}
		}
		gB, err := dpgraph.Build[bool](dioid.Boolean{}, inputsB, nil)
		if err != nil {
			t.Fatal(err)
		}
		gB.BottomUp()
		for _, alg := range []Algorithm{Take2, Lazy, Recursive} {
			e := New[bool](gB, alg)
			seen := map[string]bool{}
			n := 0
			for {
				s, ok := e.Next()
				if !ok {
					break
				}
				if s.Weight != true {
					t.Fatalf("%v: false-weight solution emitted", alg)
				}
				k := solKey(Solution[float64]{States: s.States})
				if seen[k] {
					t.Fatalf("%v: duplicate %v", alg, s.States)
				}
				seen[k] = true
				n++
			}
			if n != want {
				t.Fatalf("trial %d %v: enumerated %d, want %d", trial, alg, n, want)
			}
		}
	}
}
