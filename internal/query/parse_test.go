package query

import (
	"strings"
	"testing"
)

func TestParseFull(t *testing.T) {
	q, err := Parse("Q(*) :- R1(x1,x2), R2(x2,x3).")
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsFull() || len(q.Atoms) != 2 || q.Atoms[1].Rel != "R2" {
		t.Fatalf("parsed: %s", q)
	}
	if q.Atoms[0].Vars[1] != "x2" {
		t.Fatalf("vars: %v", q.Atoms[0].Vars)
	}
}

func TestParseProjection(t *testing.T) {
	q, err := Parse("Starts(x1) :- R1(x1, x2), R2(x2, x3)")
	if err != nil {
		t.Fatal(err)
	}
	if q.IsFull() || len(q.FreeVars()) != 1 || q.FreeVars()[0] != "x1" {
		t.Fatalf("free vars: %v", q.FreeVars())
	}
	if q.Name != "Starts" {
		t.Fatalf("name: %s", q.Name)
	}
}

func TestParseExplicitFullHead(t *testing.T) {
	q, err := Parse("Q(x,y) :- R(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsFull() || q.Free != nil {
		t.Fatalf("expected full query: %+v", q)
	}
}

func TestParseRoundTripsBuilders(t *testing.T) {
	for _, orig := range []*CQ{PathQuery(4), StarQuery(3), CycleQuery(6), CartesianQuery(2)} {
		q, err := Parse(orig.String())
		if err != nil {
			t.Fatalf("%s: %v", orig, err)
		}
		if q.String() != orig.String() {
			t.Fatalf("round trip: %s != %s", q, orig)
		}
	}
}

// TestParseUnicodeSpaces: every whitespace skip of the grammar (between
// atoms and commas, inside the parentheses, after a string constant) takes
// the Unicode spaces strings.TrimSpace takes, so a query spelled with them
// reads as its plain-space spelling.
func TestParseUnicodeSpaces(t *testing.T) {
	want, err := Parse(`Q(*) :- R(x, "a b"), S(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{
		"Q(*) :- R(x, \"a b\")\u00a0, S(x, y)",
		"Q(*) :-\u2003R(x,\u00a0\"a b\"\v),\fS(x\u0085, y)",
		"Q(*) :- R(\u00a0x, \"a b\"), S(x, y)\u3000",
	} {
		q, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if q.String() != want.String() {
			t.Fatalf("Parse(%q) = %s, want %s", s, q, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Q(x)",                // no :-
		"Q(x) :- ",            // no atoms
		"Q(x) :- R(x,",        // unterminated
		"Q(x) :- R(x), S(y),", // trailing comma
		"Q(x) :- R(x) S(y)",   // missing comma
		"Q(z) :- R(x)",        // head var not in body
		"1Q(x) :- R(x)",       // bad name
		"Q(x!) :- R(x!)",      // bad variable
		"Q() :- R(x)",         // empty head
		"Q(x) :- (x)",         // empty relation name

		"Q(x1,x1) :- R1(x1,x2), R2(x2,x3)", // repeated head variable
		"Q(*,x) :- R(x,y)",                 // '*' beside another head term
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded", s)
		}
	}
}

// TestParseRepeatedVariable pins the repeated-variable lowering: a variable
// repeated inside one atom (rejected outright before the predicate layer)
// now binds its first column and turns every later occurrence into an
// intra-atom column-equality predicate.
func TestParseRepeatedVariable(t *testing.T) {
	cases := []struct {
		in   string
		want string // the canonical rendering after lowering
	}{
		{"Q(*) :- R(x,x)", "Q(x) :- R(x,_ | $1=$2)"},
		{"Q(*) :- R(x,y), S(y,y)", "Q(x,y) :- R(x,y), S(y,_ | $1=$2)"},
		{"Q(*) :- R(a,b,a)", "Q(a,b) :- R(a,b,_ | $1=$3)"},
		{"Q(x,y) :- R(x,y), S(y,x)", "Q(x,y) :- R(x,y), S(y,x)"}, // cross-atom repetition is a join
		{"Q(*) :- R(x_1,x_2), S(x_2)", "Q(x_1,x_2) :- R(x_1,x_2), S(x_2)"},
	}
	for _, c := range cases {
		q, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): unexpected error %v", c.in, err)
			continue
		}
		if got := q.String(); got != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.in, got, c.want)
		}
	}
}

// TestParseConstants pins the constant lowering: a constant in a term
// position is shorthand for an equality predicate on that column, uniform
// with the Datalog front-end.
func TestParseConstants(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{`Q(*) :- R(x,"paper")`, `Q(x) :- R(x,_ | $2="paper")`},
		{"Q(*) :- R(x,42)", "Q(x) :- R(x,_ | $2=42)"},
		{"Q(*) :- R(x,2.5), S(x)", "Q(x) :- R(x,_ | $2=2.5), S(x)"},
		{"Q(*) :- R(7,x)", "Q(x) :- R(_,x | $1=7)"},
	}
	for _, c := range cases {
		q, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): unexpected error %v", c.in, err)
			continue
		}
		if got := q.String(); got != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.in, got, c.want)
		}
	}
	// An atom of constants only binds nothing and cannot join.
	if _, err := Parse("Q(*) :- R(1,2)"); err == nil {
		t.Error("Parse of all-constant atom succeeded, want error")
	}
}

// TestParseAtomTerms covers the shared grammar the Datalog parser builds on.
func TestParseAtomTerms(t *testing.T) {
	name, terms, err := ParseAtomTerms(`edge(x, "a,b\"c", -7, 2.5, y)`)
	if err != nil {
		t.Fatal(err)
	}
	if name != "edge" || len(terms) != 5 {
		t.Fatalf("got %s %v", name, terms)
	}
	want := []Term{
		{Kind: TermVar, Var: "x"},
		{Kind: TermString, Str: `a,b"c`},
		{Kind: TermInt, Int: -7},
		{Kind: TermFloat, Float: 2.5},
		{Kind: TermVar, Var: "y"},
	}
	for i, w := range want {
		if terms[i] != w {
			t.Errorf("term %d = %+v, want %+v", i, terms[i], w)
		}
	}
	for _, bad := range []string{
		`edge(x, "unterminated`,
		`edge(x, "bad\q")`,
		"edge(x,)",
		"edge(,x)",
		"edge()",
		"edge(x y)",
		"(x)",
		"edge",
	} {
		if _, _, err := ParseAtomTerms(bad); err == nil {
			t.Errorf("ParseAtomTerms(%q) succeeded", bad)
		}
	}
}

// TestParseFamilyErrors checks the UX contract: unknown families enumerate
// every valid name with its suffix form, and bad sizes name the family.
func TestParseFamilyErrors(t *testing.T) {
	_, err := ParseFamily("triangle3")
	if err == nil {
		t.Fatal("ParseFamily(triangle3) succeeded")
	}
	for _, form := range FamilyNames() {
		if !strings.Contains(err.Error(), form) {
			t.Errorf("unknown-family error %q does not mention %q", err, form)
		}
	}
	_, err = ParseFamily("path0")
	if err == nil || !strings.Contains(err.Error(), "path<l>") || !strings.Contains(err.Error(), "positive integer") {
		t.Errorf("bad-size error %q should name the family form and the size rule", err)
	}
	_, err = ParseFamily("cliqueX")
	if err == nil || !strings.Contains(err.Error(), "clique<k>") {
		t.Errorf("bad-size error %q should use the clique's <k> suffix", err)
	}
}
