// Package dioid implements the selective dioids (ordered semirings) that
// define ranking functions for any-k enumeration, following Section 2.2 and
// Section 6 of Tziavelis et al., "Optimal Algorithms for Ranked Enumeration
// of Answers to Full Conjunctive Queries" (VLDB 2020).
//
// A selective dioid is a semiring (W, ⊕, ⊗, 0̄, 1̄) whose addition ⊕ is
// selective (always returns one of its operands), which induces the total
// order x ≤ y iff x ⊕ y = x. The enumeration algorithms use ⊗ to aggregate
// input-tuple weights into result weights and the induced order to rank
// results; no other algebraic property is required.
package dioid

// Dioid is a selective dioid over weight type W. Implementations must satisfy
// the semiring laws (associativity, commutativity of Plus, distributivity,
// absorption of Zero) plus selectivity of Plus; these laws are property-tested
// in this package.
//
// Lift maps a raw float64 input-tuple weight into W. Structured dioids use the
// extra arguments: the lexicographic dioid places the weight at vector
// position stage, and the tie-breaking dioid records tupleID (Section 6.3).
type Dioid[W any] interface {
	// Plus is the selective addition ⊕; it returns one of a, b (the "better").
	Plus(a, b W) W
	// Times is the aggregation ⊗.
	Times(a, b W) W
	// Zero is the neutral element of Plus and absorbing for Times (the
	// "worst" weight; dead states carry it).
	Zero() W
	// One is the neutral element of Times (weight of the empty witness).
	One() W
	// Less reports whether a is strictly better than b in the induced order.
	Less(a, b W) bool
	// Lift converts an input tuple weight into W. stage is the 0-based index
	// of the tuple's stage in the serialized query; tupleID identifies the
	// tuple within the whole database.
	Lift(w float64, stage int, tupleID int64) W
}

// Group is a Dioid whose Times has an inverse. It unlocks the O(1)
// candidate-priority updates of anyK-part (Section 6.2); dioids that are only
// monoids fall back to an O(ℓ) recompute.
type Group[W any] interface {
	Dioid[W]
	// Minus removes contribution b from a: Minus(Times(a,b), b) == a.
	Minus(a, b W) W
}

// Eq reports order-equivalence of a and b under d.
func Eq[W any](d Dioid[W], a, b W) bool { return !d.Less(a, b) && !d.Less(b, a) }
