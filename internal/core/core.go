// Package core implements the paper's any-k enumeration algorithms over the
// T-DP state space of package dpgraph:
//
//   - anyK-part (Algorithm 1, Section 4.1) with the four successor
//     strategies Eager, Lazy, All and Take2;
//   - anyK-rec (Algorithm 2 / REA, Sections 4.2 and 5.1), including the
//     Cartesian-product combination of child branches for tree stages;
//   - Batch: full unranked enumeration (the join phase of Yannakakis on the
//     reduced state space) followed by sorting;
//   - the UT-DP union of several T-DP enumerators (Section 5.2) with the
//     consecutive-duplicate filter of Section 5.3/6.3.
package core

import (
	"fmt"
	"strings"

	"anyk/internal/dpgraph"
)

// Solution is one ranked answer: the chosen state per stage (-1 for the
// artificial root slot and for pruned stages) and its weight.
//
// States may alias scratch owned by the enumerator and is only valid until
// the next call to Next on the same enumerator; callers that retain it across
// calls must copy it first. (Assemblers like graphIter read it immediately.)
type Solution[W any] struct {
	States []int32
	Weight W
}

// Enumerator yields solutions in non-decreasing rank order. See Solution for
// the lifetime of the returned States slice.
type Enumerator[W any] interface {
	Next() (Solution[W], bool)
}

// Algorithm selects an any-k enumeration algorithm.
type Algorithm int

const (
	// Take2 is the paper's new anyK-part instantiation: choice sets are
	// static binary heaps, successors are the two heap children. Optimal
	// delay O(log k) after linear preprocessing.
	Take2 Algorithm = iota
	// Lazy is Chang et al.'s anyK-part instantiation: a heap per choice set
	// that is incrementally drained into a sorted list.
	Lazy
	// Eager pre-sorts each choice set on first use.
	Eager
	// All is Yang et al.'s instantiation: consuming the top choice inserts
	// all other choices as candidates.
	All
	// Recursive is anyK-rec (REA): memoized suffix enumeration.
	Recursive
	// Batch materializes the full output and sorts it.
	Batch
	// BatchNoSort materializes the full output unsorted (the Yannakakis
	// baseline without the final sort; not a ranked enumerator).
	BatchNoSort
)

// Algorithms lists the ranked algorithms in the order used by the paper's
// plots.
var Algorithms = []Algorithm{Recursive, Take2, Lazy, Eager, All, Batch}

func (a Algorithm) String() string {
	switch a {
	case Take2:
		return "Take2"
	case Lazy:
		return "Lazy"
	case Eager:
		return "Eager"
	case All:
		return "All"
	case Recursive:
		return "Recursive"
	case Batch:
		return "Batch"
	case BatchNoSort:
		return "Batch(NoSort)"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm resolves an algorithm name, case-insensitively.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a := Take2; a <= BatchNoSort; a++ {
		if strings.EqualFold(a.String(), s) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}

// New returns an enumerator for g (which must have had BottomUp run).
func New[W any](g *dpgraph.Graph[W], alg Algorithm) Enumerator[W] {
	switch alg {
	case Take2, Lazy, Eager, All:
		return newPart(g, alg)
	case Recursive:
		return newRec(g)
	case Batch:
		return newBatch(g, true)
	case BatchNoSort:
		return newBatch(g, false)
	}
	panic("core: unknown algorithm")
}
