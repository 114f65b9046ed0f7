package testkit

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"anyk/internal/core"
	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
	"anyk/internal/query"
	"anyk/internal/relation"
)

// fatalRecorder is a testing.TB whose Fatalf records the message and
// unwinds by panicking, so a test can observe a comparator failing.
type fatalRecorder struct {
	testing.TB
	msg string
}

func (f *fatalRecorder) Helper() {}

func (f *fatalRecorder) Fatalf(format string, args ...any) {
	f.msg = fmt.Sprintf(format, args...)
	panic(f)
}

// failure runs check against a fatalRecorder and returns the message check
// failed with, or "" when it passed.
func failure(check func(testing.TB)) (msg string) {
	rec := &fatalRecorder{}
	defer func() {
		if p := recover(); p != nil && p != rec {
			panic(p)
		}
		msg = rec.msg
	}()
	check(rec)
	return ""
}

// compareFailure runs CompareRanked and returns its failure message, or ""
// when the streams match.
func compareFailure(got, ref []core.Row[float64]) string {
	return failure(func(tb testing.TB) { CompareRanked[float64](tb, "stream", dioid.Tropical{}, got, ref) })
}

func TestCompareRankedTieClasses(t *testing.T) {
	row := func(w float64, vals ...dpgraph.Value) core.Row[float64] {
		return core.Row[float64]{Vals: vals, Weight: w}
	}
	ref := []core.Row[float64]{row(1, 1, 2), row(2, 3, 4), row(2, 5, 6), row(3, 7, 8)}

	// Tied rows may come in any order.
	tiesPermuted := []core.Row[float64]{row(1, 1, 2), row(2, 5, 6), row(2, 3, 4), row(3, 7, 8)}
	if msg := compareFailure(tiesPermuted, ref); msg != "" {
		t.Fatalf("permuted ties rejected: %s", msg)
	}

	// Values swapped between two rows of different weight: the weight at
	// every rank and the multiset of values over the whole stream are both
	// unchanged, but each row now carries another row's weight.
	swapped := []core.Row[float64]{row(1, 3, 4), row(2, 1, 2), row(2, 5, 6), row(3, 7, 8)}
	msg := compareFailure(swapped, ref)
	if !strings.Contains(msg, "tie class at ranks 0..0") {
		t.Fatalf("value swap across weights not caught by its tie class: %q", msg)
	}
}

// TestReweigh checks that a reference stream must answer to the base
// relations: a bumped weight and values swapped between two rows of
// different weight both fail, and the true stream passes.
func TestReweigh(t *testing.T) {
	q := query.PathQuery(2)
	db := relation.NewDB()
	r1 := relation.New("R1", "A1", "A2")
	r1.Add(1, 1, 10)
	r1.Add(4, 2, 10)
	r2 := relation.New("R2", "A1", "A2")
	r2.Add(2, 10, 5)
	r2.Add(3, 10, 6)
	r2.Add(3, 10, 6) // a duplicate tuple: its answer appears twice
	db.AddRelation(r1)
	db.AddRelation(r2)
	d := dioid.Tropical{}
	ref := Collect(t, db, q, d, core.Batch, 1)
	if len(ref) != 6 {
		t.Fatalf("reference has %d rows, want 6", len(ref))
	}
	reweigh := func(rows []core.Row[float64]) string {
		return failure(func(tb testing.TB) { Reweigh[float64](tb, "stream", db, q, d, rows) })
	}
	if msg := reweigh(ref); msg != "" {
		t.Fatalf("true stream rejected: %s", msg)
	}

	bumped := slices.Clone(ref)
	bumped[2].Weight++
	if msg := reweigh(bumped); !strings.Contains(msg, "the base relations give") {
		t.Fatalf("bumped weight not caught: %q", msg)
	}

	swapped := slices.Clone(ref)
	first, last := 0, len(swapped)-1
	if swapped[first].Weight == swapped[last].Weight {
		t.Fatalf("reference rows %d and %d share a weight", first, last)
	}
	swapped[first].Vals, swapped[last].Vals = swapped[last].Vals, swapped[first].Vals
	if msg := reweigh(swapped); !strings.Contains(msg, "the base relations give") {
		t.Fatalf("values swapped across weights not caught: %q", msg)
	}
}
