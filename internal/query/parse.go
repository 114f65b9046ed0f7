package query

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TermKind discriminates the argument kinds of the shared atom grammar.
type TermKind int

const (
	// TermVar is a variable (or the `*` wildcard in query heads).
	TermVar TermKind = iota
	// TermString is a double-quoted string constant.
	TermString
	// TermInt is an integer constant.
	TermInt
	// TermFloat is a floating-point constant.
	TermFloat
)

// Term is one argument position of an atom in the shared grammar: a variable
// or a constant literal. Constants are resolved against the data dictionary
// by the Datalog layer (package datalog); plain CQ parsing rejects them,
// since the engine joins variables only.
type Term struct {
	Kind  TermKind
	Var   string  // TermVar: the variable name
	Str   string  // TermString: the unquoted, unescaped value
	Int   int64   // TermInt
	Float float64 // TermFloat
}

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Kind == TermVar }

// String renders the term back into source syntax.
func (t Term) String() string {
	switch t.Kind {
	case TermString:
		return strconv.Quote(t.Str)
	case TermInt:
		return strconv.FormatInt(t.Int, 10)
	case TermFloat:
		s := strconv.FormatFloat(t.Float, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			// Keep the rendering parseable as a float: "100.0" must not
			// round-trip into the integer term "100" — the two carry
			// different typing rules against int64 columns, and plan-cache
			// keys built from rendered queries must stay injective.
			s += ".0"
		}
		return s
	default:
		return t.Var
	}
}

// Parse reads a conjunctive query in Datalog notation, e.g.
//
//	Q(x1,x4) :- R1(x1,x2), R2(x2,x3), R3(x3,x4)
//
// The head lists the free variables; `Q(*)` (or repeating every variable)
// makes the query full. Identifiers are letters/digits/underscores starting
// with a letter. Whitespace is insignificant; a trailing period is allowed.
// Negated atoms (`not R(x)`, `!R(x)`) need a Datalog program and are rejected.
//
// Body atoms may carry selection predicates, lowered onto Atom.Preds and
// pushed down to the scan by the engine:
//
//   - an explicit predicate list after `|`, as in `R(x,y | y > 5, x != 2)`:
//     each predicate compares a column (named by a bound variable, or by
//     1-based position `$N`) against a constant with = != < <= > >=, or
//     against another column with `=`;
//   - a constant in a term position, as in `R(x,7)`, shorthand for an
//     equality predicate on that column;
//   - a repeated variable, as in `R(x,x)`, lowered to an intra-atom
//     column-equality predicate;
//   - `_` in a term position leaves that column unbound and unconstrained.
//
// Every body atom must bind at least one variable. A CQ is a one-rule program:
// the head check (ParseHead) and the body scanner (ScanBody) are the ones the
// Datalog program parser uses, so the two front-ends accept the same rules.
func Parse(s string) (*CQ, error) {
	s = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(s), "."))
	head, body, ok := strings.Cut(s, ":-")
	if !ok {
		return nil, fmt.Errorf("query %q: missing ':-'", s)
	}
	name, headVars, err := ParseHead(head)
	if err != nil {
		return nil, err
	}
	full := len(headVars) == 1 && headVars[0] == "*"
	if !full && slices.Contains(headVars, "*") {
		return nil, fmt.Errorf("head of %s: '*' is only valid as the sole head term", name)
	}
	// Every atom ends in a parenthesis; a closing one in a string constant
	// only over-sizes the slice.
	atoms := make([]Atom, 0, strings.Count(body, ")"))
	if _, err := ScanBody(strings.TrimSpace(body), 1, func(text string, negated bool, _ int) error {
		if negated {
			return fmt.Errorf("negated atom %s: negation needs a Datalog program", text)
		}
		a, err := parseBodyAtom(text)
		if err != nil {
			return err
		}
		atoms = append(atoms, a)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("body: %w", err)
	}
	q := NewCQ(name, nil, atoms...)
	if full {
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

// ParseHead reads a rule head `Name(v1,...,vk)`: distinct variables, with no
// constants and no `_`. The wildcard `*` passes as a variable; query.Parse
// accepts it as the sole term (a full query) and the Datalog layer rejects it.
// Every error names the head.
func ParseHead(s string) (name string, vars []string, err error) {
	name, terms, err := ParseAtomTerms(s)
	if err != nil {
		return "", nil, fmt.Errorf("head: %w", err)
	}
	vars = make([]string, len(terms))
	for i, t := range terms {
		switch {
		case !t.IsVar():
			return "", nil, fmt.Errorf("head of %s: term %s is not a variable (head terms must be variables)", name, t)
		case t.Var == "_":
			return "", nil, fmt.Errorf("head of %s: '_' is not valid in a rule head (every head column needs a name)", name)
		case slices.Contains(vars[:i], t.Var):
			return "", nil, fmt.Errorf("repeated variable %s in head of %s", t.Var, name)
		}
		vars[i] = t.Var
	}
	return name, vars, nil
}

// ScanBody walks a rule body — atoms separated by commas, each optionally
// negated by a `not ` or `!` prefix — and calls atom with each atom's text
// (prefix removed), its negation flag and the 1-based line it starts on,
// counting from line. It reports an empty body, an unterminated atom, a
// missing comma and a trailing comma, and passes on the first error atom
// returns unchanged. With an error it returns the line the error was found
// on; the Datalog layer prefixes it, query.Parse does not.
func ScanBody(body string, line int, atom func(text string, negated bool, line int) error) (int, error) {
	first := line
	i, line := skipSpace(body, 0, line)
	if i == len(body) {
		return first, fmt.Errorf("rule has no body atoms")
	}
	for {
		negated := false
		if body[i] == '!' {
			negated = true
			i, line = skipSpace(body, i+1, line)
		} else if strings.HasPrefix(body[i:], "not") && spaceAt(body, i+3) {
			negated = true
			i, line = skipSpace(body, i+3, line)
		}
		text := body[i:]
		close := closeParen(text)
		if close < 0 {
			return line, fmt.Errorf("unterminated atom in %q", strings.TrimSpace(text))
		}
		text = text[:close+1]
		if err := atom(text, negated, line); err != nil {
			return line, err
		}
		line += strings.Count(text, "\n")
		i, line = skipSpace(body, i+len(text), line)
		if i == len(body) {
			return line, nil
		}
		if body[i] != ',' {
			return line, fmt.Errorf("expected ',' before %q", strings.TrimSpace(body[i:]))
		}
		i, line = skipSpace(body, i+1, line)
		if i == len(body) {
			return line, fmt.Errorf("trailing comma in rule body")
		}
	}
}

// skipSpace returns the index of the first byte of s at or after i that does
// not start a space, and line advanced by the newlines it skipped. A space is
// what unicode.IsSpace says it is, the class strings.TrimSpace removes, so
// every whitespace skip of the grammar agrees.
func skipSpace(s string, i, line int) (int, int) {
	j := len(s) - len(strings.TrimLeftFunc(s[i:], unicode.IsSpace))
	return j, line + strings.Count(s[i:j], "\n")
}

// spaceAt reports whether s[i:] starts with a space (see skipSpace).
func spaceAt(s string, i int) bool {
	r, _ := utf8.DecodeRuneInString(s[i:])
	return unicode.IsSpace(r)
}

// closeParen returns the index of the first ')' in s that does not sit
// inside a double-quoted string constant, or -1.
func closeParen(s string) int {
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

// parseBodyAtom reads one CQ body atom — `Name(t1,...,tk)` optionally
// followed by ` | p1,...,pm` inside the parentheses — and lowers constants,
// repeated variables, and explicit predicates onto Atom.Preds (see Parse for
// the grammar).
func parseBodyAtom(s string) (Atom, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return Atom{}, fmt.Errorf("malformed atom %q", s)
	}
	name := strings.TrimSpace(s[:open])
	if !ident(name) {
		return Atom{}, fmt.Errorf("bad relation name %q", name)
	}
	inner := s[open+1 : len(s)-1]
	termPart, predPart, hasPreds := cutUnquoted(inner, '|')
	terms, err := scanTerms(name, termPart)
	if err != nil {
		return Atom{}, err
	}
	a, colOf, err := AtomFromTerms(name, terms)
	if err != nil {
		return Atom{}, err
	}
	if hasPreds {
		if strings.TrimSpace(predPart) == "" {
			return Atom{}, fmt.Errorf("atom %s: empty predicate list after '|'", name)
		}
		for _, expr := range splitUnquoted(predPart, ',') {
			p, err := parsePredExpr(name, expr, colOf, len(terms))
			if err != nil {
				return Atom{}, err
			}
			a.Preds = append(a.Preds, p)
		}
	}
	return a, nil
}

// AtomFromTerms lowers an atom's term list: distinct variables bind columns,
// repeated variables become column-equality predicates, constants become
// equality predicates, `_` skips its column. colOf maps each variable to the
// (first) column it binds, for resolving predicate references. The identity
// column mapping stays nil, so predicate-free atoms render — and cache — as
// plain atoms. Exported for the Datalog layer, which lowers its positive
// body atoms through it.
func AtomFromTerms(name string, terms []Term) (Atom, map[string]int, error) {
	a := Atom{Rel: name}
	colOf := map[string]int{}
	var cols []int
	for i, t := range terms {
		if !t.IsVar() {
			a.Preds = append(a.Preds, Pred{Col: i, Op: PredEq, Val: t})
			continue
		}
		switch t.Var {
		case "*":
			return Atom{}, nil, fmt.Errorf("atom %s: '*' is only valid as the sole head term", name)
		case "_":
			continue
		}
		if c, ok := colOf[t.Var]; ok {
			a.Preds = append(a.Preds, Pred{Col: c, Op: PredColEq, Col2: i})
			continue
		}
		colOf[t.Var] = i
		a.Vars = append(a.Vars, t.Var)
		cols = append(cols, i)
	}
	if len(a.Vars) == 0 {
		return Atom{}, nil, fmt.Errorf("atom %s binds no variables", name)
	}
	identity := true
	for i, c := range cols {
		if c != i {
			identity = false
			break
		}
	}
	if !identity {
		a.Cols = cols
	}
	return a, colOf, nil
}

// parsePredExpr reads one predicate expression `ref op operand`: ref is a
// bound variable name or a 1-based `$N` column reference; operand is a
// constant, or (for `=`) another column reference.
func parsePredExpr(name, expr string, colOf map[string]int, ncols int) (Pred, error) {
	s := strings.TrimSpace(expr)
	i := strings.IndexAny(s, "<>=!")
	if i < 0 {
		return Pred{}, fmt.Errorf("atom %s: predicate %q: missing comparison operator", name, s)
	}
	var op PredOp
	rest := ""
	switch s[i] {
	case '<':
		op = PredLt
		rest = s[i+1:]
		if strings.HasPrefix(rest, "=") {
			op, rest = PredLe, rest[1:]
		}
	case '>':
		op = PredGt
		rest = s[i+1:]
		if strings.HasPrefix(rest, "=") {
			op, rest = PredGe, rest[1:]
		}
	case '=':
		op = PredEq
		rest = strings.TrimPrefix(s[i+1:], "=")
	case '!':
		if i+1 >= len(s) || s[i+1] != '=' {
			return Pred{}, fmt.Errorf("atom %s: predicate %q: bad operator", name, s)
		}
		op = PredNe
		rest = s[i+2:]
	}
	col, err := predRef(name, strings.TrimSpace(s[:i]), colOf, ncols)
	if err != nil {
		return Pred{}, err
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return Pred{}, fmt.Errorf("atom %s: predicate %q: missing right-hand side", name, s)
	}
	if rest[0] == '$' || ident(rest) {
		col2, err := predRef(name, rest, colOf, ncols)
		if err != nil {
			return Pred{}, err
		}
		if op != PredEq {
			return Pred{}, fmt.Errorf("atom %s: predicate %q: column-to-column comparison supports '=' only", name, s)
		}
		if col == col2 {
			return Pred{}, fmt.Errorf("atom %s: predicate %q compares column $%d with itself", name, s, col+1)
		}
		if col > col2 {
			col, col2 = col2, col
		}
		return Pred{Col: col, Op: PredColEq, Col2: col2}, nil
	}
	var val Term
	if rest[0] == '"' {
		str, next, err := scanString(name, rest, 0)
		if err != nil {
			return Pred{}, err
		}
		if strings.TrimSpace(rest[next:]) != "" {
			return Pred{}, fmt.Errorf("atom %s: predicate %q: trailing %q after string constant", name, s, rest[next:])
		}
		val = Term{Kind: TermString, Str: str}
	} else {
		val, err = bareTerm(name, rest)
		if err != nil {
			return Pred{}, err
		}
		if val.IsVar() {
			return Pred{}, fmt.Errorf("atom %s: predicate %q: bad operand %q", name, s, rest)
		}
	}
	return Pred{Col: col, Op: op, Val: val}, nil
}

// predRef resolves a predicate's column reference: a bound variable name or
// a 1-based `$N` position within the atom's written terms.
func predRef(name, ref string, colOf map[string]int, ncols int) (int, error) {
	if strings.HasPrefix(ref, "$") {
		n, err := strconv.Atoi(ref[1:])
		if err != nil || n < 1 {
			return 0, fmt.Errorf("atom %s: bad column reference %q", name, ref)
		}
		if n > ncols {
			return 0, fmt.Errorf("atom %s: column reference $%d exceeds the atom's %d terms", name, n, ncols)
		}
		return n - 1, nil
	}
	if ref == "_" {
		return 0, fmt.Errorf("atom %s: '_' cannot be referenced in a predicate; use $N", name)
	}
	if !ident(ref) {
		return 0, fmt.Errorf("atom %s: bad column reference %q", name, ref)
	}
	c, ok := colOf[ref]
	if !ok {
		return 0, fmt.Errorf("atom %s: predicate references unbound variable %s", name, ref)
	}
	return c, nil
}

// cutUnquoted splits s at the first sep outside double-quoted strings.
func cutUnquoted(s string, sep byte) (before, after string, found bool) {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch {
		case inStr && s[i] == '\\':
			i++
		case s[i] == '"':
			inStr = !inStr
		case !inStr && s[i] == sep:
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

// splitUnquoted splits s on sep outside double-quoted strings.
func splitUnquoted(s string, sep byte) []string {
	var out []string
	for {
		before, after, found := cutUnquoted(s, sep)
		out = append(out, before)
		if !found {
			return out
		}
		s = after
	}
}

// ParseAtomTerms reads one atom `Name(t1,t2,...)` of the shared grammar,
// where each term is a variable, the `*` wildcard, a double-quoted string
// constant (escapes: \" \\ \n \t), or a numeric constant (an int64 literal,
// or a float literal when it carries a '.' or an exponent). This is the one
// atom grammar shared by CQ parsing and the Datalog program parser.
func ParseAtomTerms(s string) (name string, terms []Term, err error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("malformed atom %q", s)
	}
	name = strings.TrimSpace(s[:open])
	if !ident(name) {
		return "", nil, fmt.Errorf("bad relation/query name %q", name)
	}
	terms, err = scanTerms(name, s[open+1:len(s)-1])
	if err != nil {
		return "", nil, err
	}
	return name, terms, nil
}

// scanTerms splits the inside of an atom's parentheses into terms,
// respecting quoted strings (a comma inside "..." is data, not a separator).
func scanTerms(name, inner string) ([]Term, error) {
	if strings.TrimSpace(inner) == "" {
		return nil, fmt.Errorf("atom %s has no variables", name)
	}
	var terms []Term
	i := 0
	for {
		i, _ = skipSpace(inner, i, 0)
		if i >= len(inner) {
			return nil, fmt.Errorf("atom %s: trailing comma", name)
		}
		var t Term
		if inner[i] == '"' {
			str, next, err := scanString(name, inner, i)
			if err != nil {
				return nil, err
			}
			t = Term{Kind: TermString, Str: str}
			i = next
		} else {
			j := i
			for j < len(inner) && inner[j] != ',' {
				j++
			}
			var err error
			if t, err = bareTerm(name, strings.TrimSpace(inner[i:j])); err != nil {
				return nil, err
			}
			i = j
		}
		terms = append(terms, t)
		i, _ = skipSpace(inner, i, 0)
		if i >= len(inner) {
			return terms, nil
		}
		if inner[i] != ',' {
			return nil, fmt.Errorf("atom %s: expected ',' before %q", name, inner[i:])
		}
		i++
	}
}

// scanString reads the double-quoted string starting at inner[i] and returns
// its unescaped value plus the index just past the closing quote.
func scanString(name, inner string, i int) (string, int, error) {
	var sb strings.Builder
	j := i + 1
	for j < len(inner) {
		c := inner[j]
		switch c {
		case '"':
			return sb.String(), j + 1, nil
		case '\\':
			j++
			if j >= len(inner) {
				return "", 0, fmt.Errorf("atom %s: unterminated string constant", name)
			}
			switch inner[j] {
			case '"':
				sb.WriteByte('"')
			case '\\':
				sb.WriteByte('\\')
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			default:
				return "", 0, fmt.Errorf("atom %s: bad escape \\%c in string constant", name, inner[j])
			}
		default:
			sb.WriteByte(c)
		}
		j++
	}
	return "", 0, fmt.Errorf("atom %s: unterminated string constant", name)
}

// bareTerm classifies an unquoted token as a variable, wildcard, or numeric
// constant.
func bareTerm(name, tok string) (Term, error) {
	switch {
	case tok == "*":
		return Term{Kind: TermVar, Var: "*"}, nil
	case ident(tok):
		return Term{Kind: TermVar, Var: tok}, nil
	case numberLike(tok):
		if strings.ContainsAny(tok, ".eE") {
			f, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return Term{}, fmt.Errorf("bad numeric constant %q in atom %s", tok, name)
			}
			return Term{Kind: TermFloat, Float: f}, nil
		}
		n, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return Term{}, fmt.Errorf("bad numeric constant %q in atom %s", tok, name)
		}
		return Term{Kind: TermInt, Int: n}, nil
	default:
		return Term{}, fmt.Errorf("bad variable %q in atom %s", tok, name)
	}
}

// numberLike reports whether tok starts like a numeric literal.
func numberLike(tok string) bool {
	if tok == "" {
		return false
	}
	c := tok[0]
	if c == '-' || c == '+' {
		return len(tok) > 1
	}
	return c >= '0' && c <= '9'
}

func ident(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case unicode.IsLetter(r) || r == '_':
		case i > 0 && unicode.IsDigit(r):
		default:
			return false
		}
	}
	return true
}
