package datalog

import (
	"fmt"
	"strings"
	"unicode"

	"anyk/internal/query"
)

// ParseProgram reads a multi-rule Datalog program. The surface syntax:
//
//	% line comments (also # and //)
//	path(x, y) :- edge(x, y).
//	path(x, z) :- path(x, y), edge(y, z).
//	?- path("a", y).
//
// Every statement ends with a period (the final one may omit it). A
// statement is either a rule `head :- a1, ..., an` or the goal directive
// `?- a1, ..., an`, whose head is synthesized over the body's variables in
// first-occurrence order. Atoms use the grammar shared with query.Parse:
// identifiers, double-quoted string constants, and int/float constants.
// Body atoms may be negated with `not ` or `!`; negation must be safe
// (every variable of a negated atom bound by a positive atom) and is not
// allowed in the goal rule. Without a directive, the goal is the last rule
// whose head predicate no other rule references.
//
// All errors carry 1-based source line numbers.
func ParseProgram(src string) (*Program, error) {
	stmts, err := splitStatements(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("empty program")
	}
	p := &Program{}
	var directive *Rule
	for _, st := range stmts {
		if strings.HasPrefix(strings.TrimSpace(st.text), "?-") {
			if directive != nil {
				return nil, fmt.Errorf("line %d: a program may have only one ?- goal directive", st.line)
			}
			g, err := parseDirective(st)
			if err != nil {
				return nil, err
			}
			directive = &g
			continue
		}
		r, err := parseRule(st)
		if err != nil {
			return nil, err
		}
		p.Rules = append(p.Rules, r)
	}
	if err := resolveGoal(p, directive); err != nil {
		return nil, err
	}
	return p, validate(p)
}

// statement is one period-terminated chunk of the source with comments
// stripped (newlines preserved for line accounting inside the chunk).
type statement struct {
	text string
	line int // 1-based line the statement starts on
}

// splitStatements strips comments and splits the source into statements at
// periods that sit outside string constants and outside parentheses (a '.'
// inside an atom's argument list is part of a float literal, never a
// terminator). Trailing text after the last period is tolerated as a final
// statement.
func splitStatements(src string) ([]statement, error) {
	clean := stripComments(src)
	var stmts []statement
	line := 1
	start, startLine := 0, 1
	depth := 0
	inStr := false
	// flush emits clean[start:end] as a statement, with leading space (the
	// grammar's Unicode class) stripped and the start line advanced past it,
	// so later offsets within the statement count newlines from its first
	// token.
	flush := func(end int) {
		text := clean[start:end]
		rest := strings.TrimLeftFunc(text, unicode.IsSpace)
		if rest != "" {
			ln := startLine + strings.Count(text[:len(text)-len(rest)], "\n")
			stmts = append(stmts, statement{text: rest, line: ln})
		}
	}
	for i := 0; i < len(clean); i++ {
		c := clean[i]
		switch {
		case inStr && c == '\\':
			i++
		case c == '"':
			inStr = !inStr
		case inStr:
		case c == '(':
			depth++
		case c == ')':
			if depth > 0 {
				depth--
			}
		case c == '.' && depth == 0:
			flush(i)
			start, startLine = i+1, line
		}
		if c == '\n' {
			line++
		}
	}
	if inStr {
		return nil, fmt.Errorf("line %d: unterminated string constant", startLine)
	}
	flush(len(clean))
	return stmts, nil
}

// stripComments blanks %, #, and // comments (outside string constants) to
// end of line, preserving every newline so line numbers stay true.
func stripComments(src string) string {
	var sb strings.Builder
	sb.Grow(len(src))
	inStr := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case inStr && c == '\\':
			sb.WriteByte(c)
			if i+1 < len(src) {
				i++
				sb.WriteByte(src[i])
			}
			continue
		case c == '"':
			inStr = !inStr
		case !inStr && (c == '%' || c == '#' || (c == '/' && i+1 < len(src) && src[i+1] == '/')):
			for i < len(src) && src[i] != '\n' {
				i++
			}
			if i < len(src) {
				sb.WriteByte('\n')
			}
			continue
		}
		sb.WriteByte(c)
	}
	return sb.String()
}

// parseRule reads `head :- body` from one statement.
func parseRule(st statement) (Rule, error) {
	headText, bodyText, ok := strings.Cut(st.text, ":-")
	if !ok {
		return Rule{}, fmt.Errorf("line %d: statement is not a rule (missing ':-'); facts are not supported — load data through the database", st.line)
	}
	name, vars, err := query.ParseHead(headText)
	if err != nil {
		return Rule{}, fmt.Errorf("line %d: %v", st.line, err)
	}
	terms := make([]query.Term, len(vars))
	for i, v := range vars {
		if v == "*" {
			return Rule{}, fmt.Errorf("line %d: head of %s: '*' is not valid in a program rule head", st.line, name)
		}
		terms[i] = query.Term{Kind: query.TermVar, Var: v}
	}
	head := Atom{Pred: name, Terms: terms, Line: st.line}
	body, err := parseBody(bodyText, st.line+strings.Count(headText, "\n"))
	if err != nil {
		return Rule{}, err
	}
	return Rule{Head: head, Body: body, Line: st.line}, nil
}

// parseDirective reads `?- body` and synthesizes the goal head over the
// body's variables in first-occurrence order.
func parseDirective(st statement) (Rule, error) {
	text := strings.TrimSpace(st.text)
	body, err := parseBody(strings.TrimPrefix(text, "?-"), st.line)
	if err != nil {
		return Rule{}, err
	}
	var terms []query.Term
	seen := map[string]bool{}
	for _, a := range body {
		if a.Negated {
			continue
		}
		for _, t := range a.Terms {
			if t.IsVar() && t.Var != "_" && !seen[t.Var] {
				seen[t.Var] = true
				terms = append(terms, t)
			}
		}
	}
	if len(terms) == 0 {
		return Rule{}, fmt.Errorf("line %d: goal has no variables (fully ground goals are not supported)", st.line)
	}
	return Rule{
		Head: Atom{Pred: "goal", Terms: terms, Line: st.line},
		Body: body,
		Line: st.line,
	}, nil
}

// parseBody lowers a rule body through the shared body scanner, adding
// source line numbers to every error.
func parseBody(text string, startLine int) ([]Atom, error) {
	var atoms []Atom
	line, err := query.ScanBody(text, startLine, func(src string, negated bool, line int) error {
		name, terms, err := query.ParseAtomTerms(src)
		if err != nil {
			return err
		}
		for _, t := range terms {
			if !t.IsVar() {
				continue
			}
			if t.Var == "*" {
				return fmt.Errorf("'*' is not valid in a program atom")
			}
			if negated && t.Var == "_" {
				return fmt.Errorf("'_' is not valid in a negated atom (negation matches whole tuples)")
			}
		}
		atoms = append(atoms, Atom{Pred: name, Terms: terms, Negated: negated, Line: line})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("line %d: %v", line, err)
	}
	return atoms, nil
}

// resolveGoal installs the program's distinguished goal rule: the directive
// when present, otherwise the last rule whose head predicate no other rule
// references (a sink of the dependency graph).
func resolveGoal(p *Program, directive *Rule) error {
	if directive != nil {
		for _, r := range p.Rules {
			if r.Head.Pred == directive.Head.Pred {
				return fmt.Errorf("line %d: the ?- goal conflicts with rules defining predicate %s", r.Line, r.Head.Pred)
			}
		}
		p.Goal = *directive
		p.GoalDirective = true
		return nil
	}
	referenced := map[string]bool{}
	for _, r := range p.Rules {
		for _, a := range r.Body {
			referenced[a.Pred] = true
		}
	}
	goalIdx := -1
	for i, r := range p.Rules {
		if !referenced[r.Head.Pred] {
			goalIdx = i
		}
	}
	if goalIdx < 0 {
		return fmt.Errorf("line %d: program has no goal: every rule head is referenced by another rule; add a `?- ...` goal directive", lastLine(p.Rules))
	}
	goal := p.Rules[goalIdx]
	for i, r := range p.Rules {
		if i != goalIdx && r.Head.Pred == goal.Head.Pred {
			return fmt.Errorf("line %d: goal predicate %s has more than one rule; ranked enumeration needs a single goal rule — add a `?- ...` directive or a wrapper rule", r.Line, goal.Head.Pred)
		}
	}
	p.Rules = append(p.Rules[:goalIdx:goalIdx], p.Rules[goalIdx+1:]...)
	p.Goal = goal
	return nil
}

func lastLine(rules []Rule) int {
	if len(rules) == 0 {
		return 1
	}
	return rules[len(rules)-1].Line
}

// validate enforces the static rules that need the whole program: safety of
// heads and negation, and the goal restrictions.
func validate(p *Program) error {
	check := func(r Rule, isGoal bool) error {
		positive := map[string]bool{}
		for _, a := range r.Body {
			if a.Negated {
				continue
			}
			for _, t := range a.Terms {
				if t.IsVar() {
					positive[t.Var] = true
				}
			}
		}
		for _, t := range r.Head.Terms {
			if !positive[t.Var] {
				return fmt.Errorf("line %d: head variable %s of %s does not occur in a positive body atom", r.Line, t.Var, r.Head.Pred)
			}
		}
		for _, a := range r.Body {
			if !a.Negated {
				continue
			}
			if isGoal {
				return fmt.Errorf("line %d: negation in the goal rule is not supported; materialize it through an intermediate predicate", a.Line)
			}
			for _, t := range a.Terms {
				if t.IsVar() && !positive[t.Var] {
					return fmt.Errorf("line %d: unsafe negation: variable %s of not %s is not bound by a positive atom", a.Line, t.Var, a.Pred)
				}
			}
		}
		return nil
	}
	for _, r := range p.Rules {
		if err := check(r, false); err != nil {
			return err
		}
	}
	return check(p.Goal, true)
}
