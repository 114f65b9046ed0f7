package query

import (
	"strings"
	"testing"

	"anyk/internal/relation"
)

// TestParsePredGrammar covers the `|` predicate syntax: operator spellings,
// $N and variable column references, canonicalization, and rendering.
func TestParsePredGrammar(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"Q(*) :- R(x,y | y > 5)", "Q(x,y) :- R(x,y | $2>5)"},
		{"Q(*) :- R(x,y | y >= 5, x < 2)", "Q(x,y) :- R(x,y | $2>=5,$1<2)"},
		{"Q(*) :- R(x,y | x != -3)", "Q(x,y) :- R(x,y | $1!=-3)"},
		{"Q(*) :- R(x,y | $2 <= 2.5)", "Q(x,y) :- R(x,y | $2<=2.5)"},
		{"Q(*) :- R(x,y | x = y)", "Q(x,y) :- R(x,y | $1=$2)"},
		{"Q(*) :- R(x,y | y = x)", "Q(x,y) :- R(x,y | $1=$2)"}, // canonical col order
		{"Q(*) :- R(x,y | x == 7)", "Q(x,y) :- R(x,y | $1=7)"},
		{`Q(*) :- R(x,y | y = "a|b,c")`, `Q(x,y) :- R(x,y | $2="a|b,c")`},
		{"Q(*) :- R(x,_,y | $2 > 0)", "Q(x,y) :- R(x,_,y | $2>0)"},
		// Predicates compose with constants and repeats in term positions.
		{"Q(*) :- R(x,x,7 | x > 1)", "Q(x) :- R(x,_,_ | $1=$2,$3=7,$1>1)"},
	}
	for _, c := range cases {
		q, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := q.String(); got != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.in, got, c.want)
		}
		// The canonical rendering must reparse to itself (String fixpoint) —
		// the property the plan cache keys on.
		q2, err := Parse(c.want)
		if err != nil {
			t.Errorf("Parse(%q) (canonical form): %v", c.want, err)
			continue
		}
		if got := q2.String(); got != c.want {
			t.Errorf("canonical form not a fixpoint: %q -> %q", c.want, got)
		}
	}
}

func TestParsePredErrors(t *testing.T) {
	bad := []string{
		"Q(*) :- R(x,y | )",                               // empty predicate list
		"Q(*) :- R(x,y | z > 5)",                          // unbound variable
		"Q(*) :- R(x,y | $3 > 5)",                         // reference past arity
		"Q(*) :- R(x,y | $0 > 5)",                         // references are 1-based
		"Q(*) :- R(x,y | x)",                              // no operator
		"Q(*) :- R(x,y | x < y)",                          // col-col ordering unsupported
		"Q(*) :- R(x,y | x = x)",                          // self-comparison
		"Q(*) :- R(x,y | x ! 5)",                          // bad operator
		"Q(*) :- R(x,y | x > )",                           // missing operand
		"Q(*) :- R(x,_ | _ = 5)",                          // `_` is not referenceable
		"Q(*) :- R(x,y | x > *)",                          // bad operand
		"Q(_) :- R(x,_)",                                  // `_` cannot be free
		"Q(*) :- R(_,_)",                                  // binds no variables
		`Q(*) :- R(x | x = "a" b)`,                        // trailing junk after string
		"Q(*) :- R(*, x)",                                 // `*` is head-only
		"Q(*) :- R(x,y | x > 5 " + `, y < "unterminated)`, // unterminated string
	}
	for _, s := range bad {
		if q, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded with %s, want error", s, q)
		}
	}
}

func newPredTestRel(t *testing.T) *relation.Relation {
	t.Helper()
	dict := relation.NewDictionary()
	rel, err := relation.NewTyped("R", dict, []string{"a", "b", "c", "d"},
		[]relation.Type{relation.TypeInt64, relation.TypeFloat64, relation.TypeString, relation.TypeInt64})
	if err != nil {
		t.Fatal(err)
	}
	rel.Add(1.0, 7, dict.EncodeFloat(2.5), dict.EncodeString("paper"), 7)
	return rel
}

// TestScanPredsTyping covers compile-time typing: constants must match the
// column's logical type, ordered float comparisons carry the logical float,
// and ordered string comparisons are rejected.
func TestScanPredsTyping(t *testing.T) {
	rel := newPredTestRel(t)
	parse := func(s string) Atom {
		t.Helper()
		q, err := Parse("Q(*) :- " + s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		return q.Atoms[0]
	}

	ok := []string{
		"R(x,y,z,w | x > 5)",
		"R(x,y,z,w | x != 5)",
		"R(x,y,z,w | y > 2)", // int constant on float column
		"R(x,y,z,w | y <= 2.5)",
		"R(x,y,z,w | y = 2.5)", // float equality goes through the dictionary
		`R(x,y,z,w | z = "paper")`,
		`R(x,y,z,w | z != "nope")`,
		"R(x,y,z,w | x = w)", // int col = int col
		"R(x,y,z,x)",         // repeated variable lowers to int col = int col
	}
	for _, s := range ok {
		a := parse(s)
		if _, err := a.ScanPreds(rel); err != nil {
			t.Errorf("ScanPreds(%s): %v", s, err)
		}
	}

	bad := []struct{ atom, frag string }{
		{`R(x,y,z,w | x = "seven")`, "does not match"},
		{"R(x,y,z,w | x = 2.5)", "does not match"},
		{"R(x,y,z,w | z > 5)", "not supported"},
		{`R(x,y,z,w | z < "m")`, "not supported"},
		{"R(x,y,z,w | y = x)", "compares"}, // int col vs float col
		{"R(x,y,z,w | y = 9007199254740993)", "does not fit"},
		{"R(v,w,x,y,z)", "arity"}, // five vars, four columns
		{"R(x,y,z,w,5)", "arity"}, // predicate past arity
	}
	for _, c := range bad {
		a := parse(c.atom)
		_, err := a.ScanPreds(rel)
		if err == nil {
			t.Errorf("ScanPreds(%s) succeeded, want error containing %q", c.atom, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("ScanPreds(%s) error = %q, want substring %q", c.atom, err, c.frag)
		}
	}
}

// TestTermFloatRendering pins that float constants always render with a
// float marker: "100.0" must not round-trip into the integer "100", which
// types differently against int64 columns.
func TestTermFloatRendering(t *testing.T) {
	for in, want := range map[string]string{"100.0": "100.0", "1e2": "100.0", "2.5": "2.5", "1e-7": "1e-07"} {
		q, err := Parse("Q(*) :- R(x | x != " + in + ")")
		if err != nil {
			t.Fatalf("Parse(%s): %v", in, err)
		}
		p := q.Atoms[0].Preds[0]
		if p.Val.Kind != TermFloat {
			t.Fatalf("%s parsed as %v, want TermFloat", in, p.Val.Kind)
		}
		if got := p.Val.String(); got != want {
			t.Errorf("Term(%s).String() = %q, want %q", in, got, want)
		}
	}
}

// FuzzParsePred drives arbitrary query strings through Parse and checks the
// canonical-rendering fixpoint every successful parse must satisfy: String()
// reparses, and reparsing is idempotent. The plan cache keys on String(), so
// a non-fixpoint rendering would split or alias cache entries.
func FuzzParsePred(f *testing.F) {
	for _, seed := range []string{
		"Q(*) :- R(x,y | y > 5)",
		"Q(x) :- R(x,x), S(x,7)",
		`Q(*) :- R(x,_ | $2 = "a|b")`,
		"Q(*) :- R(x,y | x>=-2, y!=3, x=y)",
		"Q(a,b) :- R(a,b | a < 2.5), S(b | b != 1e9)",
		"Q(*) :- R(7,x | x <= 0)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		q, err := Parse(s)
		if err != nil {
			return
		}
		rendered := q.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendering of %q does not reparse: %q: %v", s, rendered, err)
		}
		if got := q2.String(); got != rendered {
			t.Fatalf("rendering not a fixpoint: %q -> %q -> %q", s, rendered, got)
		}
	})
}
