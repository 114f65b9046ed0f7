package engine_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"anyk/internal/core"
	"anyk/internal/dioid"
	"anyk/internal/query"
	"anyk/internal/testkit"
)

// TestRowTreeNamesTheDecompositionTree: Row.Tree is the index of the
// decomposition tree that produced the row, on the serial union as on the
// parallel merge, also when the union skips an empty tree before it.
func TestRowTreeNamesTheDecompositionTree(t *testing.T) {
	q := query.CycleQuery(4)
	// On this instance the heavy/light decomposition's tree 0 is empty.
	db := testkit.RandomDB(rand.New(rand.NewSource(2)), q, 10, 4)
	tagged := func(p int) []string {
		var out []string
		for _, r := range testkit.Collect(t, db, q, dioid.Tropical{}, core.Take2, p) {
			if r.Tree == 0 {
				t.Fatalf("p=%d: a row from tree 0, which is empty on this instance", p)
			}
			out = append(out, fmt.Sprint(r.Vals, r.Tree))
		}
		slices.Sort(out)
		return out
	}
	serial, parallel := tagged(1), tagged(4)
	if len(serial) == 0 || !slices.Equal(serial, parallel) {
		t.Fatalf("(vals, tree) at p=1: %v\nat p=4: %v", serial, parallel)
	}
}
