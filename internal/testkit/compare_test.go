package testkit

import (
	"fmt"
	"strings"
	"testing"

	"anyk/internal/core"
	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
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

// compareFailure runs CompareRanked and returns its failure message, or ""
// when the streams match.
func compareFailure(got, ref []core.Row[float64]) (msg string) {
	rec := &fatalRecorder{}
	defer func() {
		if p := recover(); p != nil && p != rec {
			panic(p)
		}
		msg = rec.msg
	}()
	CompareRanked[float64](rec, "stream", dioid.Tropical{}, got, ref)
	return ""
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
