package datalog

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"anyk/internal/query"
)

// refParseBody is parseBody as it stood before programs and CQs shared one
// body scanner (query.ScanBody), kept verbatim apart from the names of
// itself and of the copied refCloseParen, as the reference
// FuzzParseBodyMatchesRef compares the shared scanner against.
func refParseBody(text string, startLine int) ([]Atom, error) {
	var atoms []Atom
	line := startLine
	rest := text
	advance := func(n int) {
		line += strings.Count(rest[:n], "\n")
		rest = rest[n:]
	}
	trim := func() {
		n := 0
		for n < len(rest) && (rest[n] == ' ' || rest[n] == '\t' || rest[n] == '\n' || rest[n] == '\r') {
			n++
		}
		advance(n)
	}
	trim()
	if rest == "" {
		return nil, fmt.Errorf("line %d: rule has no body atoms", startLine)
	}
	for len(rest) > 0 {
		negated := false
		if strings.HasPrefix(rest, "!") {
			negated = true
			advance(1)
			trim()
		} else if strings.HasPrefix(rest, "not") && len(rest) > 3 && (rest[3] == ' ' || rest[3] == '\t' || rest[3] == '\n' || rest[3] == '\r') {
			negated = true
			advance(3)
			trim()
		}
		close := refCloseParen(rest)
		if close < 0 {
			return nil, fmt.Errorf("line %d: unterminated atom in %q", line, strings.TrimSpace(rest))
		}
		atomLine := line
		name, terms, err := query.ParseAtomTerms(rest[:close+1])
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", atomLine, err)
		}
		for _, t := range terms {
			if !t.IsVar() {
				continue
			}
			if t.Var == "*" {
				return nil, fmt.Errorf("line %d: '*' is not valid in a program atom", atomLine)
			}
			if negated && t.Var == "_" {
				return nil, fmt.Errorf("line %d: '_' is not valid in a negated atom (negation matches whole tuples)", atomLine)
			}
		}
		atoms = append(atoms, Atom{Pred: name, Terms: terms, Negated: negated, Line: atomLine})
		advance(close + 1)
		trim()
		if rest == "" {
			return atoms, nil
		}
		if rest[0] != ',' {
			return nil, fmt.Errorf("line %d: expected ',' before %q", line, strings.TrimSpace(rest))
		}
		advance(1)
		trim()
		if rest == "" {
			return nil, fmt.Errorf("line %d: trailing comma in rule body", line)
		}
	}
	return atoms, nil
}

// refCloseParen is query.closeParen, copied so that refParseBody stays whole.
func refCloseParen(s string) int {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch {
		case inStr && s[i] == '\\':
			i++ // skip the escaped byte
		case s[i] == '"':
			inStr = !inStr
		case !inStr && s[i] == ')':
			return i
		}
	}
	return -1
}

// bodyVerdictChanges is FuzzParseBodyMatchesRef's allow-list: inputs on which
// parseBody departs from refParseBody on purpose. An entry names the change,
// gives an example, and matches the inputs it covers.
var bodyVerdictChanges = []struct {
	name    string
	example string
	match   func(text string) bool
}{
	{
		// Between atoms, commas and a `not` prefix the scanner skips every
		// Unicode space, as the atom grammar's strings.TrimSpace always
		// did; refParseBody skipped only space, tab, CR and LF. With the
		// other spaces made plain, the two must agree.
		name:    "Unicode space between atoms",
		example: "r(x)\u00a0, s(x)",
		match: func(text string) bool {
			plain := strings.Map(func(r rune) rune {
				if unicode.IsSpace(r) && !strings.ContainsRune(" \t\n\r", r) {
					return ' '
				}
				return r
			}, text)
			if plain == text {
				return false
			}
			want, wantErr := refParseBody(plain, 1)
			got, err := parseBody(plain, 1)
			return sameBody(got, err, want, wantErr)
		},
	},
}

// sameBody reports whether two body parses agree: the same error message,
// or the same atoms.
func sameBody(got []Atom, err error, want []Atom, wantErr error) bool {
	if err != nil || wantErr != nil {
		return err != nil && wantErr != nil && err.Error() == wantErr.Error()
	}
	return reflect.DeepEqual(got, want)
}

// TestBodyVerdictChanges keeps the allow-list honest: each entry's example
// is a real disagreement, and the entry covers it.
func TestBodyVerdictChanges(t *testing.T) {
	for _, c := range bodyVerdictChanges {
		want, wantErr := refParseBody(c.example, 1)
		got, err := parseBody(c.example, 1)
		if sameBody(got, err, want, wantErr) || !c.match(c.example) {
			t.Errorf("%s: example %q: refParseBody %v, %v; parseBody %v, %v", c.name, c.example, want, wantErr, got, err)
		}
	}
}

// FuzzParseBodyMatchesRef checks that the shared body scanner reads every
// rule body as refParseBody did: both return the same error message, or both
// return the same atoms (predicate, terms, negation and line), or the input
// is one of bodyVerdictChanges.
func FuzzParseBodyMatchesRef(f *testing.F) {
	for _, src := range []string{
		// The parse tests' programs.
		"% transitive closure, ranked\npath(x, y) :- edge(x, y).     # base case\npath(x, z) :- path(x, y), edge(y, z).\n?- path(x, y).",
		"hop(x, z) :- r1(x, y), r2(y, z).\nanswer(x, z, u) :- hop(x, z), r3(z, u)",
		"flagged(x) :- label(x, \"bad, very \\\"bad\\\"\"), score(x, 2.5).\nclean(x, y) :- edge(x, y), not flagged(x), ! flagged(y).\n?- clean(x, y).",
		"p(x) :- r(x, y), not s(x, _).\n?- p(x).",
		"p(x) :- r(x), not s(x, y).\n?- p(x).",
		"p(x) :- r(x).\n?- p(x), not p2(x).",
		`p(x) :- r(x, "oops).`,
		"p(x) :- r(x), .",
		"p(x) :- r(x),",
		"p(x) :- r(*).",
		`?- r("a", "b").`,
		"% header\na(x, y) :-\n  e(x, y).\nb(x) :- a(x, y),\n  e(y, *).",
		"p(x) :- r(x, -7), s(x, 2.5).",
		// FuzzParseProgram's seeds.
		"path(x, y) :- edge(x, y).\npath(x, z) :- path(x, y), edge(y, z).\n?- path(x, y).",
		"% comment\nq(x) :- r(x, \"a,b\\\"c\"), s(x, 2.5). # tail\n// more\nt(x) :- q(x), u(x, -7)",
		"a(x) :- b(x, y), not c(y).\nc(y) :- d(y).\n?- a(x).",
		"win(x) :- move(x, y), ! win(y).",
		"p(x,\n  z) :- r(x,\n  y), s(y, z).",
		"?- r(x), s(x).",
		"p(x) :- r(x, x).",
		"p(x) :- r(x)",
	} {
		// Seed with each statement's body, as parseRule and parseDirective
		// hand it to parseBody.
		stmts, _ := splitStatements(src)
		for _, st := range stmts {
			if _, body, ok := strings.Cut(st.text, ":-"); ok {
				f.Add(body)
			} else {
				f.Add(strings.TrimPrefix(strings.TrimSpace(st.text), "?-"))
			}
		}
	}
	for _, body := range []string{"", " ", "r(x) s(x)", "r(x)\v, s(x)", "not (x)", "not(x)", "!r(x), not\nr(x)",
		"not\u00a0r(x)", "r(x),\u00a0s(x)\u2003", "r(x\u00a0, \"a\u00a0b\"\u00a0)"} {
		f.Add(body)
	}
	for _, c := range bodyVerdictChanges {
		f.Add(c.example)
	}
	f.Fuzz(func(t *testing.T, text string) {
		want, wantErr := refParseBody(text, 1)
		got, err := parseBody(text, 1)
		if sameBody(got, err, want, wantErr) {
			return
		}
		for _, c := range bodyVerdictChanges {
			if c.match(text) {
				return
			}
		}
		t.Fatalf("parseBody(%q) = %v, %v; refParseBody = %v, %v", text, got, err, want, wantErr)
	})
}
