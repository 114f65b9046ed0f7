package datalog

import (
	"strings"
	"testing"

	"anyk/internal/query"
)

func TestParseProgramBasic(t *testing.T) {
	src := `
% transitive closure, ranked
path(x, y) :- edge(x, y).     # base case
path(x, z) :- path(x, y), edge(y, z).
?- path(x, y).`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 2 {
		t.Fatalf("rules: %d, want 2", len(p.Rules))
	}
	if !p.GoalDirective || p.Goal.Head.Pred != "goal" {
		t.Fatalf("goal: %+v", p.Goal)
	}
	if got := p.Goal.Head.headVars(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("goal head vars: %v", got)
	}
	if p.Rules[0].Line != 3 || p.Rules[1].Line != 4 || p.Goal.Line != 5 {
		t.Fatalf("lines: %d %d %d", p.Rules[0].Line, p.Rules[1].Line, p.Goal.Line)
	}
}

func TestParseProgramSinkGoal(t *testing.T) {
	// No directive: the last rule whose head nothing references is the goal.
	// The final period may be omitted.
	src := `hop(x, z) :- r1(x, y), r2(y, z).
answer(x, z, u) :- hop(x, z), r3(z, u)`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.GoalDirective || p.Goal.Head.Pred != "answer" || len(p.Rules) != 1 {
		t.Fatalf("goal resolution: %+v / %d rules", p.Goal.Head, len(p.Rules))
	}
}

func TestParseProgramConstantsAndNegation(t *testing.T) {
	src := `
flagged(x) :- label(x, "bad, very \"bad\""), score(x, 2.5).
clean(x, y) :- edge(x, y), not flagged(x), ! flagged(y).
?- clean(x, y).`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rules[0]
	if r.Body[0].Terms[1].Str != `bad, very "bad"` || r.Body[1].Terms[1].Float != 2.5 {
		t.Fatalf("constants: %+v", r.Body)
	}
	c := p.Rules[1]
	if !c.Body[1].Negated || !c.Body[2].Negated || c.Body[0].Negated {
		t.Fatalf("negation flags: %+v", c.Body)
	}
}

func TestParseProgramErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string // substring of the error
	}{
		{"", "empty program"},
		{"edge(1, 2).", "facts are not supported"},
		{"p(x, x) :- r(x, y).", "repeated variable x in head"},
		{"p(_) :- r(x, y).", "'_' is not valid in a rule head"},
		{"p(x) :- r(x, y), not s(x, _).\n?- p(x).", "'_' is not valid in a negated atom"},
		{"p(y) :- r(x).", "head variable y of p does not occur in a positive body atom"},
		{"p(x) :- r(x), not s(x, y).\n?- p(x).", "unsafe negation: variable y"},
		{"p(x) :- r(x).\n?- p(x), not p2(x).", "line 2: negation in the goal rule is not supported"},
		{"?- p(x).\n?- q(x).", "only one ?- goal directive"},
		{"goal(x) :- r(x).\n?- goal(x), s(x).", "conflicts with rules defining predicate goal"},
		{"a(x) :- b(x).\nb(x) :- a(x).", "program has no goal"},
		{"p(x) :- r(x).\np(x) :- s(x).", "goal predicate p has more than one rule"},
		{`p(x) :- r(x, "oops).`, "unterminated string"},
		{"p(x) :- r(x), .", "trailing comma"},
		{"p(x) :- r(x),", "trailing comma"},
		{"p(*) :- r(x).", "'*' is not valid in a program rule head"},
		{"p(x) :- r(*).", "'*' is not valid in a program atom"},
		{`?- r("a", "b").`, "goal has no variables"},
		{"p(2.5) :- r(x).", "not a variable"},
	}
	for _, c := range cases {
		_, err := ParseProgram(c.src)
		if err == nil {
			t.Errorf("ParseProgram(%q) succeeded, want error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseProgram(%q) error = %q, want substring %q", c.src, err, c.want)
		}
	}
}

func TestParseProgramLineNumbers(t *testing.T) {
	// The offending atom sits on line 5; a comment and a multi-line rule
	// precede it, exercising the newline accounting inside statements.
	src := `% header
a(x, y) :-
  e(x, y).
b(x) :- a(x, y),
  e(y, *).`
	_, err := ParseProgram(src)
	if err == nil || !strings.HasPrefix(err.Error(), "line 5:") {
		t.Fatalf("error = %v, want line 5 prefix", err)
	}
}

// TestParseProgramUnicodeSpaces: statements, rule bodies and atoms skip the
// same Unicode spaces, so a program spelled with them parses as its
// plain-space spelling, with the same line numbers.
func TestParseProgramUnicodeSpaces(t *testing.T) {
	plain := "p(x) :- r(x), s(x).\n ?- p(x)."
	for _, src := range []string{
		"p(x) :- r(x)\u00a0, s(x).\n\u2003?- p(x).\u00a0",
		"p(x)\u00a0:-\u00a0r(\u00a0x)\v,\fs(x\u0085).\n?-\u3000p(x).\u2003\n",
	} {
		want, err := ParseProgram(plain)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("ParseProgram(%q): %v", src, err)
		}
		if got.String() != want.String() || got.Rules[0].Line != 1 || got.Goal.Line != 2 {
			t.Fatalf("ParseProgram(%q) = %s (lines %d, %d), want %s", src, got, got.Rules[0].Line, got.Goal.Line, want)
		}
	}
}

func TestProgramString(t *testing.T) {
	src := `p(x, y) :- e(x, y), not q(y).
q(y) :- f(y, "lit").
?- p(x, y).`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	// The canonical render re-parses to the same render (cache-key stability).
	p2, err := ParseProgram(p.String())
	if err != nil {
		t.Fatalf("reparse of %q: %v", p.String(), err)
	}
	if p2.String() != p.String() {
		t.Fatalf("render not stable:\n%s\nvs\n%s", p.String(), p2.String())
	}
}

func TestBasePredicates(t *testing.T) {
	p, err := ParseProgram(`a(x, y) :- e(x, y).
b(x, z) :- a(x, y), f(y, z), not g(z).
?- b(x, z), h(z, u).`)
	if err != nil {
		t.Fatal(err)
	}
	got := p.BasePredicates()
	want := []string{"e", "f", "g", "h"}
	if len(got) != len(want) {
		t.Fatalf("base predicates %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("base predicates %v, want %v", got, want)
		}
	}
}

func TestParseTermsFlowThrough(t *testing.T) {
	p, err := ParseProgram(`p(x) :- r(x, -7), s(x, 2.5).`)
	if err != nil {
		t.Fatal(err)
	}
	b := p.Goal.Body // single rule becomes the sink goal
	if b[0].Terms[1].Kind != query.TermInt || b[0].Terms[1].Int != -7 {
		t.Fatalf("int term: %+v", b[0].Terms[1])
	}
	if b[1].Terms[1].Kind != query.TermFloat || b[1].Terms[1].Float != 2.5 {
		t.Fatalf("float term: %+v", b[1].Terms[1])
	}
}
