// Package datalog is the program front-end over the any-k engine: it parses
// multi-rule Datalog programs (rules, comments, string/float constants, a
// distinguished goal rule), stratifies them over the predicate-dependency
// graph, materializes derived relations into a versioned relation.DB —
// non-recursive rules by lowering their bodies onto engine.Enumerate/Batch,
// recursive strata by semi-naive fixpoint iteration with delta relations —
// and finally hands the goal rule to the existing any-k engine for ranked
// enumeration. Under the tropical dioid a recursive reachability program
// therefore enumerates ranked shortest paths.
//
// Evaluation is defined over float64 dioids whose Lift is the identity on
// the input weight (Tropical, MaxPlus, MaxTimes, MinMax): a derived tuple's
// weight is the Times-fold of its witness weights, so re-lifting it in a
// downstream rule composes exactly as if the rule bodies had been inlined.
package datalog

import (
	"strings"

	"anyk/internal/query"
)

// Atom is one literal of a rule body (or a rule head): a predicate applied
// to terms of the shared grammar (variables or constants), optionally
// negated. Line is the 1-based source line of the atom, carried through to
// every later error so stratification and evaluation failures point at the
// offending literal.
type Atom struct {
	Pred    string
	Terms   []query.Term
	Negated bool
	Line    int
}

// String renders the atom back into source syntax.
func (a Atom) String() string {
	var sb strings.Builder
	if a.Negated {
		sb.WriteString("not ")
	}
	sb.WriteString(a.Pred)
	sb.WriteByte('(')
	for i, t := range a.Terms {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(t.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// headVars returns the head's variable names in position order (heads are
// validated to hold distinct variables only).
func (a Atom) headVars() []string {
	vs := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		vs[i] = t.Var
	}
	return vs
}

// Rule is one Datalog rule `head :- body.`; Line is the 1-based source line
// the rule starts on.
type Rule struct {
	Head Atom
	Body []Atom
	Line int
}

// String renders the rule back into source syntax (without the period).
func (r Rule) String() string {
	var sb strings.Builder
	sb.WriteString(r.Head.String())
	sb.WriteString(" :- ")
	for i, a := range r.Body {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	return sb.String()
}

// Program is a parsed Datalog program: the materialization rules plus the
// distinguished goal rule, which is never materialized — its body becomes
// the conjunctive query the any-k engine ranks.
type Program struct {
	// Rules holds every non-goal rule in source order.
	Rules []Rule
	// Goal is the distinguished goal rule: the `?- body.` directive
	// (synthesized head over the body's variables) or, absent a directive,
	// the last rule whose head predicate no other rule references.
	Goal Rule
	// GoalDirective reports whether Goal came from a `?- ...` directive.
	GoalDirective bool
}

// String renders the program canonically: one rule per line, the goal last
// in directive form. Cache keys for materialized programs hang off it.
func (p *Program) String() string {
	var sb strings.Builder
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteString(".\n")
	}
	sb.WriteString(p.Goal.String())
	sb.WriteString(".\n")
	return sb.String()
}

// BasePredicates returns the predicates the program reads but never defines
// — the relations the database must provide — in first-use order.
func (p *Program) BasePredicates() []string {
	derived := map[string]bool{}
	for _, r := range p.Rules {
		derived[r.Head.Pred] = true
	}
	var out []string
	seen := map[string]bool{}
	visit := func(r Rule) {
		for _, a := range r.Body {
			if !derived[a.Pred] && !seen[a.Pred] {
				seen[a.Pred] = true
				out = append(out, a.Pred)
			}
		}
	}
	for _, r := range p.Rules {
		visit(r)
	}
	visit(p.Goal)
	return out
}
