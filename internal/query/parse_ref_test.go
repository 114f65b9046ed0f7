package query

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// refParse is Parse as it stood before CQs and Datalog programs shared one
// body scanner and one head check, kept verbatim (only the names of the
// helpers it calls changed) as the reference FuzzParseMatchesRef compares the
// shared grammar against.
func refParse(s string) (*CQ, error) {
	s = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(s), "."))
	head, body, ok := strings.Cut(s, ":-")
	if !ok {
		return nil, fmt.Errorf("query %q: missing ':-'", s)
	}
	name, headVars, err := refParseAtom(head)
	if err != nil {
		return nil, fmt.Errorf("head: %w", err)
	}
	for _, v := range headVars {
		if v == "_" {
			return nil, fmt.Errorf("head: '_' cannot be a free variable")
		}
	}
	var atoms []Atom
	rest := strings.TrimSpace(body)
	for len(rest) > 0 {
		close := closeParen(rest)
		if close < 0 {
			return nil, fmt.Errorf("body: unterminated atom in %q", rest)
		}
		a, err := parseBodyAtom(rest[:close+1])
		if err != nil {
			return nil, fmt.Errorf("body: %w", err)
		}
		atoms = append(atoms, a)
		rest = strings.TrimSpace(rest[close+1:])
		if strings.HasPrefix(rest, ",") {
			rest = strings.TrimSpace(rest[1:])
			if rest == "" {
				return nil, fmt.Errorf("body: trailing comma")
			}
		} else if rest != "" {
			return nil, fmt.Errorf("body: expected ',' before %q", rest)
		}
	}
	if len(atoms) == 0 {
		return nil, fmt.Errorf("query %q has no atoms", s)
	}
	q := NewCQ(name, nil, atoms...)
	if len(headVars) == 1 && headVars[0] == "*" {
		return q, nil
	}
	all := map[string]bool{}
	for _, v := range q.Vars() {
		all[v] = true
	}
	for _, v := range headVars {
		if !all[v] {
			return nil, fmt.Errorf("head variable %s does not occur in the body", v)
		}
	}
	q.Free = headVars
	if q.IsFull() {
		q.Free = nil
	}
	return q, nil
}

// refParseAtom is the head parser refParse used, kept verbatim.
func refParseAtom(s string) (name string, vars []string, err error) {
	name, terms, err := ParseAtomTerms(s)
	if err != nil {
		return "", nil, err
	}
	vars = make([]string, len(terms))
	for i, t := range terms {
		if !t.IsVar() {
			return "", nil, fmt.Errorf("constant %s in atom %s: constants are not allowed here", t, name)
		}
		vars[i] = t.Var
	}
	return name, vars, nil
}

// verdictChange names inputs on which Parse departs from refParse on
// purpose: refParse accepts them and Parse rejects them. match gets the
// input, refParse's query and Parse's error.
type verdictChange struct {
	name    string
	example string
	match   func(s string, ref *CQ, err error) bool
}

// parseVerdictChanges is FuzzParseMatchesRef's allow-list.
var parseVerdictChanges = []verdictChange{
	{
		// The head check is the program parser's.
		name:    "repeated head variable",
		example: "Q(x1,x1) :- R1(x1,x2), R2(x2,x3)",
		match: func(_ string, ref *CQ, err error) bool {
			return strings.Contains(err.Error(), "repeated variable") && hasDuplicate(ref.Free)
		},
	},
	{
		// The body scanner reads `not` followed by whitespace as
		// negation, as programs always did, and a CQ has no negation.
		// refParse read it as a relation named `not`.
		name:    "not followed by whitespace",
		example: "Q(*) :- not (x)",
		match: func(_ string, ref *CQ, err error) bool {
			return strings.Contains(err.Error(), "negated atom") &&
				slices.ContainsFunc(ref.Atoms, func(a Atom) bool { return a.Rel == "not" })
		},
	},
}

func hasDuplicate(vars []string) bool {
	for i, v := range vars {
		if slices.Contains(vars[:i], v) {
			return true
		}
	}
	return false
}

// parseDisagreement compares Parse with refParse on s and describes a
// disagreement that no entry of parseVerdictChanges covers, or returns "".
func parseDisagreement(s string) string {
	ref, refErr := refParse(s)
	q, err := Parse(s)
	switch {
	case refErr != nil && err != nil:
		return ""
	case refErr != nil:
		return fmt.Sprintf("refParse rejects (%v), Parse accepts %s", refErr, q)
	case err == nil:
		if q.String() != ref.String() || !slices.Equal(q.Free, ref.Free) {
			return fmt.Sprintf("Parse gives %s (free %v), refParse %s (free %v)", q, q.Free, ref, ref.Free)
		}
		return ""
	}
	for _, c := range parseVerdictChanges {
		if c.match(s, ref, err) {
			return ""
		}
	}
	return fmt.Sprintf("refParse accepts %s, Parse rejects: %v", ref, err)
}

// TestParseVerdictChanges keeps the allow-list honest: each entry's example
// is a real disagreement, and the entry covers it.
func TestParseVerdictChanges(t *testing.T) {
	for _, c := range parseVerdictChanges {
		ref, refErr := refParse(c.example)
		_, err := Parse(c.example)
		if refErr != nil || err == nil || !c.match(c.example, ref, err) {
			t.Errorf("%s: example %q: refParse error %v, Parse error %v", c.name, c.example, refErr, err)
		}
	}
}

// FuzzParseMatchesRef checks that the shared grammar reads every query as
// refParse did: both reject it, or both accept it with the same rendering
// and free variables, or the input is one of parseVerdictChanges.
func FuzzParseMatchesRef(f *testing.F) {
	for _, seed := range []string{
		// The parse tests' inputs.
		"Q(*) :- R1(x1,x2), R2(x2,x3).",
		"Starts(x1) :- R1(x1, x2), R2(x2, x3)",
		"Q(x,y) :- R(x,y)",
		PathQuery(4).String(),
		StarQuery(3).String(),
		CycleQuery(6).String(),
		CartesianQuery(2).String(),
		"", "Q(x)", "Q(x) :- ", "Q(x) :- R(x,", "Q(x) :- R(x), S(y),",
		"Q(x) :- R(x) S(y)", "Q(z) :- R(x)", "1Q(x) :- R(x)", "Q(x!) :- R(x!)",
		"Q() :- R(x)", "Q(x) :- (x)",
		"Q(x1,x1) :- R1(x1,x2), R2(x2,x3)", "Q(*,x) :- R(x,y)",
		"Q(*) :- R(x,x)", "Q(*) :- R(a,b,a)", "Q(x,y) :- R(x,y), S(y,x)",
		`Q(*) :- R(x,"paper")`, "Q(*) :- R(x,2.5), S(x)", "Q(*) :- R(7,x)", "Q(*) :- R(1,2)",
		"Q(*) :- R(x,y | y > 5)", `Q(*) :- R(x,_ | $2 = "a|b")`,
		"Q(a,b) :- R(a,b | a < 2.5), S(b | b != 1e9)",
		// FuzzParseProgram's seeds.
		"path(x, y) :- edge(x, y).\npath(x, z) :- path(x, y), edge(y, z).\n?- path(x, y).",
		"% comment\nq(x) :- r(x, \"a,b\\\"c\"), s(x, 2.5). # tail\n// more\nt(x) :- q(x), u(x, -7)",
		"a(x) :- b(x, y), not c(y).\nc(y) :- d(y).\n?- a(x).",
		"win(x) :- move(x, y), ! win(y).",
		"p(x,\n  z) :- r(x,\n  y), s(y, z).",
		"?- r(x), s(x).",
		"p(x) :- r(x, x).",
		"edge(1, 2).",
		".",
		"p(x) :- r(x)",
		// Neighbours of the verdict changes' examples.
		"Q(*) :- not(x)", "Q(*) :- R(x), not\n(x)", "Q(*) :- R(x), !S(x)",
		"Q(*) :- R(x)\v, S(x)", "Q(*) :- R(x)\u00a0,\u00a0S(x)", "Q(*) :- R(x),\u00a0S(x)",
		"Q(*) :- R(x)\u00a0, S(x)",
	} {
		f.Add(seed)
	}
	for _, c := range parseVerdictChanges {
		f.Add(c.example)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if d := parseDisagreement(s); d != "" {
			t.Fatalf("Parse(%q): %s", s, d)
		}
	})
}
