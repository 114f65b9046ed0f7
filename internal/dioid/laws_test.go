package dioid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// lawSuite property-checks the selective-dioid laws for a dioid over W using
// a caller-supplied generator. eq must be semantic equality of weights.
func lawSuite[W any](t *testing.T, d Dioid[W], gen func(r *rand.Rand) W, eq func(a, b W) bool) {
	t.Helper()
	cfg := &quick.Config{MaxCount: 300}

	check := func(name string, f any) {
		t.Helper()
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	r := rand.New(rand.NewSource(42))
	g := func() W { return gen(r) }

	check("plus-assoc", func(seed int64) bool {
		a, b, c := g(), g(), g()
		return eq(d.Plus(d.Plus(a, b), c), d.Plus(a, d.Plus(b, c)))
	})
	check("plus-comm", func(seed int64) bool {
		a, b := g(), g()
		return eq(d.Plus(a, b), d.Plus(b, a))
	})
	check("plus-selective", func(seed int64) bool {
		a, b := g(), g()
		s := d.Plus(a, b)
		return eq(s, a) || eq(s, b)
	})
	check("plus-ident", func(seed int64) bool {
		a := g()
		return eq(d.Plus(a, d.Zero()), a) && eq(d.Plus(d.Zero(), a), a)
	})
	check("times-assoc", func(seed int64) bool {
		a, b, c := g(), g(), g()
		return eq(d.Times(d.Times(a, b), c), d.Times(a, d.Times(b, c)))
	})
	check("times-ident", func(seed int64) bool {
		a := g()
		return eq(d.Times(a, d.One()), a) && eq(d.Times(d.One(), a), a)
	})
	check("zero-absorbs", func(seed int64) bool {
		a := g()
		return eq(d.Times(a, d.Zero()), d.Zero()) && eq(d.Times(d.Zero(), a), d.Zero())
	})
	check("distributivity", func(seed int64) bool {
		a, b, c := g(), g(), g()
		return eq(d.Times(d.Plus(a, b), c), d.Plus(d.Times(a, c), d.Times(b, c)))
	})
	check("less-consistent-with-plus", func(seed int64) bool {
		a, b := g(), g()
		if d.Less(a, b) {
			return eq(d.Plus(a, b), a)
		}
		return eq(d.Plus(a, b), b) || eq(a, b)
	})
	check("less-total", func(seed int64) bool {
		a, b := g(), g()
		// exactly one of a<b, b<a, equivalent
		la, lb := d.Less(a, b), d.Less(b, a)
		return !(la && lb)
	})
	check("less-monotone-times", func(seed int64) bool {
		// nondecreasing monotonicity used by Theorem 27
		a, b, c := g(), g(), g()
		if d.Less(a, b) {
			return !d.Less(d.Times(b, c), d.Times(a, c))
		}
		return true
	})
}

func groupLaw[W any](t *testing.T, d Group[W], gen func(r *rand.Rand) W, eq func(a, b W) bool) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b := gen(r), gen(r)
		if !eq(d.Minus(d.Times(a, b), b), a) {
			t.Fatalf("Minus(Times(a,b),b) != a for a=%v b=%v", a, b)
		}
	}
}

func fgen(r *rand.Rand) float64 { return math.Round(r.Float64()*200-100) / 2 }
func posgen(r *rand.Rand) float64 {
	return float64(1 + r.Intn(16)) // exact small positives: ×/÷ are exact
}
func feq(a, b float64) bool { return a == b || (math.IsInf(a, 1) && math.IsInf(b, 1)) }

func TestTropicalLaws(t *testing.T) {
	lawSuite[float64](t, Tropical{}, fgen, feq)
	groupLaw[float64](t, Tropical{}, fgen, feq)
}

func TestMaxPlusLaws(t *testing.T) {
	lawSuite[float64](t, MaxPlus{}, fgen, feq)
	groupLaw[float64](t, MaxPlus{}, fgen, feq)
}

func TestMaxTimesLaws(t *testing.T) {
	lawSuite[float64](t, MaxTimes{}, posgen, feq)
	groupLaw[float64](t, MaxTimes{}, posgen, feq)
}

func TestBooleanLaws(t *testing.T) {
	lawSuite[bool](t, Boolean{}, func(r *rand.Rand) bool { return r.Intn(2) == 0 },
		func(a, b bool) bool { return a == b })
}

func TestLexLaws(t *testing.T) {
	d := NewLex(3)
	gen := func(r *rand.Rand) Vec {
		v := make(Vec, 3)
		for i := range v {
			v[i] = float64(r.Intn(7))
		}
		return v
	}
	eq := func(a, b Vec) bool {
		for i := range a {
			if !feq(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	lawSuite[Vec](t, d, gen, eq)
	groupLaw[Vec](t, d, gen, eq)
}

func TestLexLift(t *testing.T) {
	d := NewLex(4)
	v := d.Lift(3.5, 2, 99)
	want := Vec{0, 0, 3.5, 0}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("Lift = %v, want %v", v, want)
		}
	}
	// lexicographic comparison: earlier stages dominate
	a := d.Times(d.Lift(1, 0, 0), d.Lift(100, 1, 0))
	b := d.Times(d.Lift(2, 0, 0), d.Lift(0, 1, 0))
	if !d.Less(a, b) {
		t.Fatalf("expected %v < %v", a, b)
	}
}

func TestTieBreak(t *testing.T) {
	d := NewGroupTie[float64](Tropical{}, 2)
	a := d.Times(d.Lift(5, 0, 10), d.Lift(5, 1, 20))
	b := d.Times(d.Lift(5, 0, 10), d.Lift(5, 1, 21))
	if d.Less(a, b) == false || d.Less(b, a) {
		t.Fatalf("tie not broken by ids: a=%v b=%v", a, b)
	}
	if got := d.Minus(a, d.Lift(5, 1, 20)); got.W != 5 || got.IDs[0] != 10 || got.IDs[1] != -1 {
		t.Fatalf("Minus wrong: %+v", got)
	}
	// equality only for identical witnesses
	if d.Less(a, a) {
		t.Fatal("a < a")
	}
	// Real executions set each stage position at most once per composed
	// weight; generate accordingly by giving successive operands distinct
	// stages (round-robin over a 3-stage wrapper).
	d3 := NewGroupTie[float64](Tropical{}, 3)
	stage := 0
	genTie := func(r *rand.Rand) TieWeight[float64] {
		s := stage % 3
		stage++
		return d3.Lift(float64(r.Intn(5)), s, int64(r.Intn(4)))
	}
	eqTie := func(a, b TieWeight[float64]) bool {
		if !feq(a.W, b.W) {
			return false
		}
		for i := range a.IDs {
			if a.IDs[i] != b.IDs[i] {
				return false
			}
		}
		return true
	}
	lawSuite[TieWeight[float64]](t, d3, genTie, eqTie)
}

func TestHelpers(t *testing.T) {
	d := Tropical{}
	if !Eq[float64](d, 2, 2) || Eq[float64](d, 1, 2) {
		t.Fatal("Eq broken")
	}
}

func TestBooleanRanksTrueFirst(t *testing.T) {
	d := Boolean{}
	if !d.Less(true, false) || d.Less(false, true) {
		t.Fatal("Boolean order must rank true before false (Section 6.4)")
	}
}

func TestMinMaxLaws(t *testing.T) {
	lawSuite[float64](t, MinMax{}, fgen, feq)
	// bottleneck semantics: Times is max
	d := MinMax{}
	if d.Times(3, 7) != 7 || d.Plus(3, 7) != 3 {
		t.Fatal("MinMax operators wrong")
	}
	if _, ok := any(d).(Group[float64]); ok {
		t.Fatal("MinMax must not advertise an inverse")
	}
}
