package datalog

import (
	"fmt"
	"sort"
	"strings"

	"anyk/internal/core"
	"anyk/internal/dioid"
	"anyk/internal/engine"
	"anyk/internal/query"
	"anyk/internal/relation"
)

// MaxFixpointPasses caps semi-naive iteration. A negation-free Datalog
// program always reaches a tuple fixpoint, but weights under a dioid with
// unbounded improvement (negative edges under tropical, say) can keep
// getting better forever; hitting the cap reports that instead of spinning.
var MaxFixpointPasses = 10000

// Materialized is a fully evaluated program: a database extending the input
// with every derived relation, the goal rule lowered to a conjunctive query
// over it, and the per-stratum evaluation report. It is immutable once
// built, so an engine.Cache may share one across sessions — re-evaluating
// an unchanged program then skips straight to the goal's compiled plan.
type Materialized struct {
	DB     *relation.DB
	Goal   *query.CQ
	Strata []engine.StratumInfo
}

// Materialize evaluates p's rules bottom-up over db: stratify, then per
// stratum either a single lowering pass (non-recursive) or semi-naive
// fixpoint iteration (recursive), materializing each derived predicate as a
// relation in a clone of db. The input database is never mutated; the clone
// shares its relations and dictionary.
//
// Evaluation needs a dioid whose Lift is the identity on input weights
// (Tropical, MaxPlus, MaxTimes, MinMax): a derived tuple's weight is the
// Times-fold of its witnesses, and identity Lift makes re-lifting it in a
// downstream rule compose exactly as if the rule bodies had been inlined.
func Materialize(db *relation.DB, p *Program, d dioid.Dioid[float64]) (*Materialized, error) {
	for _, w := range []float64{0, 1, 2.5, -3} {
		if got := d.Lift(w, 0, 0); got != w {
			return nil, fmt.Errorf("datalog evaluation needs a dioid whose Lift is the identity on weights (tropical, max-plus, max-times, min-max); %T lifts %v to %v", d, w, got)
		}
	}
	strata, err := Stratify(p)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, r := range p.Rules {
		if !seen[r.Head.Pred] {
			seen[r.Head.Pred] = true
			if db.Relation(r.Head.Pred) != nil {
				return nil, fmt.Errorf("line %d: predicate %s is already a base relation in the database", r.Line, r.Head.Pred)
			}
		}
	}
	work := db.Clone()
	infos := make([]engine.StratumInfo, 0, len(strata))
	for _, st := range strata {
		var info engine.StratumInfo
		var err error
		if st.Recursive {
			info, err = evalRecursive(work, p, st, d)
		} else {
			info, err = evalNonRecursive(work, p, st, d)
		}
		if err != nil {
			return nil, err
		}
		infos = append(infos, info)
	}
	lr, err := lowerRule(work, p.Goal)
	if err != nil {
		return nil, err
	}
	goal := query.NewCQ(p.Goal.Head.Pred, nil, lr.pos...)
	goal.Free = p.Goal.Head.headVars()
	if goal.IsFull() {
		goal.Free = nil
	}
	return &Materialized{DB: work, Goal: goal, Strata: infos}, nil
}

// Enumerate materializes p over db and hands the goal query to the any-k
// engine for ranked enumeration. With opts.Cache set, the whole Materialized
// value is memoized under (db identity, db version, dioid, program), and the
// cached derived database keeps its identity across calls — so the goal's
// compiled plan and built DP graphs hit the same cache on re-evaluation.
// The iterator's Plan reports the strata evaluated for this program.
func Enumerate(db *relation.DB, p *Program, d dioid.Dioid[float64], alg core.Algorithm, opts ...engine.Options) (*engine.Iterator[float64], error) {
	var opt engine.Options
	if len(opts) > 0 {
		opt = opts[0]
	}
	var mat *Materialized
	if opt.Cache != nil {
		v, _, err := opt.Cache.GetOrBuild(programKey(db, p, d), func() (any, error) {
			return Materialize(db, p, d)
		})
		if err != nil {
			return nil, err
		}
		mat = v.(*Materialized)
	} else {
		m, err := Materialize(db, p, d)
		if err != nil {
			return nil, err
		}
		mat = m
	}
	it, err := engine.Enumerate(mat.DB, mat.Goal, d, alg, opt)
	if err != nil {
		return nil, err
	}
	if it.Plan != nil {
		it.Plan.Strata = mat.Strata
	}
	return it, nil
}

// programKey caches a Materialized: the input database instance and version
// (any mutation re-materializes), the dioid, and the canonical program text.
func programKey(db *relation.DB, p *Program, d dioid.Dioid[float64]) string {
	return fmt.Sprintf("prog|db=%d.%d|d=%T%+v|%s", db.ID(), db.Version(), d, d, p)
}

// loweredRule is a rule body resolved against a database: positive atoms as
// plain query atoms (constants folded into selection relations), negated
// atoms as membership checks applied to the enumerated rows.
type loweredRule struct {
	head Atom
	pos  []query.Atom
	neg  []negCheck
}

// negCheck is one negated atom: a row is dropped when the referenced
// relation contains the tuple assembled from the bound variables (vars) and
// constant codes (vals, where isConst).
type negCheck struct {
	pred    string
	line    int
	vals    []relation.Value
	vars    []string
	isConst []bool
}

// lowerRule resolves r's body against db. Constants, repeated variables, and
// `_` terms lower onto the atom itself as selection predicates / column
// mappings (query.AtomFromTerms, shared with the CQ parser) — pushed down
// into the scans by the engine, so nothing is materialized or registered.
// Predicates are compiled eagerly here purely to surface type errors with the
// rule's line number; the engine recompiles them per relation at plan time
// (interning is idempotent).
func lowerRule(db *relation.DB, r Rule) (*loweredRule, error) {
	lr := &loweredRule{head: r.Head}
	for _, a := range r.Body {
		rel := db.Relation(a.Pred)
		if rel == nil {
			return nil, fmt.Errorf("line %d: unknown predicate %s: not a base relation, and no rule defines it", a.Line, a.Pred)
		}
		if len(a.Terms) != rel.Arity() {
			return nil, fmt.Errorf("line %d: atom %s has %d terms but relation %s has arity %d", a.Line, a.Pred, len(a.Terms), a.Pred, rel.Arity())
		}
		if a.Negated {
			nc, err := lowerNegated(db, rel, a)
			if err != nil {
				return nil, err
			}
			lr.neg = append(lr.neg, nc)
			continue
		}
		qa, _, err := query.AtomFromTerms(a.Pred, a.Terms)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", a.Line, err)
		}
		if _, err := qa.ScanPreds(rel); err != nil {
			return nil, fmt.Errorf("line %d: %v", a.Line, err)
		}
		lr.pos = append(lr.pos, qa)
	}
	return lr, nil
}

// lowerNegated resolves a negated atom into a membership check.
func lowerNegated(db *relation.DB, base *relation.Relation, a Atom) (negCheck, error) {
	nc := negCheck{
		pred:    a.Pred,
		line:    a.Line,
		vals:    make([]relation.Value, len(a.Terms)),
		vars:    make([]string, len(a.Terms)),
		isConst: make([]bool, len(a.Terms)),
	}
	for i, t := range a.Terms {
		if t.IsVar() {
			nc.vars[i] = t.Var
			continue
		}
		v, err := encodeConst(db, base, i, t, a.Line)
		if err != nil {
			return negCheck{}, err
		}
		nc.isConst[i] = true
		nc.vals[i] = v
	}
	return nc, nil
}

// encodeConst interns a constant term as the dense code it must match in
// column col of base, type-checking it against the column's logical type.
// Interning through the shared dictionary is append-only and never
// invalidates existing codes, so encoding during evaluation is safe.
func encodeConst(db *relation.DB, base *relation.Relation, col int, t query.Term, line int) (relation.Value, error) {
	dict := base.Dict
	if dict == nil {
		dict = db.Dict()
	}
	switch base.ColType(col) {
	case relation.TypeInt64:
		if t.Kind == query.TermInt {
			return t.Int, nil
		}
	case relation.TypeFloat64:
		switch t.Kind {
		case query.TermFloat:
			return dict.EncodeFloat(t.Float), nil
		case query.TermInt:
			if !relation.IntFitsFloat64(t.Int) {
				return 0, fmt.Errorf("line %d: integer constant %d does not fit the float64 column %s of %s exactly", line, t.Int, base.Attrs[col], base.Name)
			}
			return dict.EncodeFloat(float64(t.Int)), nil
		}
	case relation.TypeString:
		if t.Kind == query.TermString {
			return dict.EncodeString(t.Str), nil
		}
	}
	return 0, fmt.Errorf("line %d: constant %s does not match the %s column %s of %s", line, t, base.ColType(col), base.Attrs[col], base.Name)
}

// evalLowered enumerates a lowered rule body as a full conjunctive query
// (Batch-ranked, serial), applies the negation checks, and projects each
// result onto the head variables. It returns the projected rows, their
// dioid weights, and the logical type of each head column.
func evalLowered(db *relation.DB, lr *loweredRule, d dioid.Dioid[float64]) (rows [][]relation.Value, weights []float64, types []relation.Type, err error) {
	q := query.NewCQ(lr.head.Pred, nil, lr.pos...)
	it, err := engine.Enumerate(db, q, d, core.Batch, engine.Options{Parallelism: 1})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("line %d: rule for %s: %v", lr.head.Line, lr.head.Pred, err)
	}
	defer it.Close()
	pos := make(map[string]int, len(it.Vars))
	for i, v := range it.Vars {
		pos[v] = i
	}
	headVars := lr.head.headVars()
	headPos := make([]int, len(headVars))
	types = make([]relation.Type, len(headVars))
	for i, v := range headVars {
		j, ok := pos[v]
		if !ok {
			return nil, nil, nil, fmt.Errorf("line %d: internal: head variable %s missing from the body enumeration of %s", lr.head.Line, v, lr.head.Pred)
		}
		headPos[i] = j
		if it.Types != nil {
			types[i] = it.Types[j]
		}
	}
	type resolvedNeg struct {
		nc     *negCheck
		idx    *relation.Grouping
		colPos []int // body-row position per column; -1 marks a constant
	}
	negs := make([]resolvedNeg, 0, len(lr.neg))
	for i := range lr.neg {
		nc := &lr.neg[i]
		rel := db.Relation(nc.pred)
		cols := make([]int, rel.Arity())
		for c := range cols {
			cols[c] = c
		}
		rn := resolvedNeg{nc: nc, idx: rel.GroupIndex(cols), colPos: make([]int, len(nc.vars))}
		for c := range nc.vars {
			if nc.isConst[c] {
				rn.colPos[c] = -1
				continue
			}
			j, ok := pos[nc.vars[c]]
			if !ok {
				return nil, nil, nil, fmt.Errorf("line %d: internal: negation variable %s unbound in rule for %s", nc.line, nc.vars[c], lr.head.Pred)
			}
			rn.colPos[c] = j
		}
		negs = append(negs, rn)
	}
	var key []relation.Value
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		drop := false
		for _, rn := range negs {
			key = key[:0]
			for c, p := range rn.colPos {
				if p < 0 {
					key = append(key, rn.nc.vals[c])
				} else {
					key = append(key, r.Vals[p])
				}
			}
			if rn.idx.Find(key...) >= 0 {
				drop = true
				break
			}
		}
		if drop {
			continue
		}
		out := make([]relation.Value, len(headPos))
		for i, j := range headPos {
			out[i] = r.Vals[j]
		}
		rows = append(rows, out)
		weights = append(weights, r.Weight)
	}
	return rows, weights, types, nil
}

// attrNames is the derived relation's column schema: the head variables.
func attrNames(head Atom) []string {
	return append([]string(nil), head.headVars()...)
}

// evalNonRecursive evaluates a single-predicate, non-recursive stratum: each
// rule lowers to one ranked enumeration, and their results append into one
// derived relation under bag semantics — duplicates keep their individual
// witness weights, exactly as if the rule bodies were inlined at every use.
func evalNonRecursive(db *relation.DB, p *Program, st Stratum, d dioid.Dioid[float64]) (engine.StratumInfo, error) {
	pred := st.Preds[0]
	var rel *relation.Relation
	for _, ri := range st.Rules {
		r := p.Rules[ri]
		lr, err := lowerRule(db, r)
		if err != nil {
			return engine.StratumInfo{}, err
		}
		rows, weights, types, err := evalLowered(db, lr, d)
		if err != nil {
			return engine.StratumInfo{}, err
		}
		if rel == nil {
			rel, err = db.NewDerived(pred, attrNames(r.Head), types)
			if err != nil {
				return engine.StratumInfo{}, fmt.Errorf("line %d: %v", r.Line, err)
			}
		} else if err := checkSchema(rel, r, types); err != nil {
			return engine.StratumInfo{}, err
		}
		for i, row := range rows {
			if _, err := rel.TryAdd(weights[i], row...); err != nil {
				return engine.StratumInfo{}, fmt.Errorf("line %d: %v", r.Line, err)
			}
		}
	}
	db.AddRelation(rel)
	return engine.StratumInfo{
		Predicates: append([]string(nil), st.Preds...),
		Rules:      len(st.Rules),
		Tuples:     rel.Size(),
		Iterations: 1,
	}, nil
}

// checkSchema rejects a later rule whose head disagrees with the schema the
// predicate's first rule established.
func checkSchema(rel *relation.Relation, r Rule, types []relation.Type) error {
	if len(types) != rel.Arity() {
		return fmt.Errorf("line %d: rule for %s has arity %d but an earlier rule has arity %d", r.Line, r.Head.Pred, len(types), rel.Arity())
	}
	for i, t := range types {
		if t != rel.ColType(i) {
			return fmt.Errorf("line %d: rule for %s binds column %d to %s but an earlier rule produced %s", r.Line, r.Head.Pred, i+1, t, rel.ColType(i))
		}
	}
	return nil
}

// fixState is the accumulated content of one recursive predicate during
// semi-naive iteration: tuples in first-discovery order (keeping evaluation
// deterministic) with Plus-folded weights, plus the dedup index. Recursive
// strata use set semantics — under a selective dioid the folded weight is
// the fixpoint value (minimum path weight under tropical).
type fixState struct {
	attrs   []string
	types   []relation.Type
	rows    [][]relation.Value
	weights []float64
	index   map[relation.Key]int
}

// evalRecursive runs semi-naive fixpoint iteration over a recursive stratum:
// pass 0 evaluates every rule against the stratum's (initially empty)
// relations; each later pass re-evaluates, per rule, one variant for every
// occurrence of a stratum predicate with that occurrence rebound to the
// previous pass's delta relation, and merges the results by d.Plus. A pass
// with no new tuples and no improved weights is the fixpoint.
func evalRecursive(db *relation.DB, p *Program, st Stratum, d dioid.Dioid[float64]) (engine.StratumInfo, error) {
	members := map[string]bool{}
	for _, q := range st.Preds {
		members[q] = true
	}
	states := map[string]*fixState{}
	for _, ri := range st.Rules {
		r := p.Rules[ri]
		if s := states[r.Head.Pred]; s == nil {
			states[r.Head.Pred] = &fixState{attrs: attrNames(r.Head), index: map[relation.Key]int{}}
		} else if len(r.Head.Terms) != len(s.attrs) {
			return engine.StratumInfo{}, fmt.Errorf("line %d: rule for %s has arity %d but an earlier rule has arity %d", r.Line, r.Head.Pred, len(r.Head.Terms), len(s.attrs))
		}
	}
	for _, ri := range st.Rules {
		for _, a := range p.Rules[ri].Body {
			if !members[a.Pred] {
				continue
			}
			if len(a.Terms) != len(states[a.Pred].attrs) {
				return engine.StratumInfo{}, fmt.Errorf("line %d: atom %s has %d terms but the rules for %s have arity %d", a.Line, a.Pred, len(a.Terms), a.Pred, len(states[a.Pred].attrs))
			}
		}
	}
	if err := inferSchemas(db, p, st, members, states); err != nil {
		return engine.StratumInfo{}, err
	}
	publish := func() error {
		for _, q := range st.Preds {
			s := states[q]
			rel, err := db.NewDerived(q, s.attrs, s.types)
			if err != nil {
				return fmt.Errorf("line %d: %v", p.Rules[st.Rules[0]].Line, err)
			}
			for i, row := range s.rows {
				if _, err := rel.TryAdd(s.weights[i], row...); err != nil {
					return fmt.Errorf("line %d: %v", p.Rules[st.Rules[0]].Line, err)
				}
			}
			db.AddRelation(rel)
		}
		return nil
	}
	if err := publish(); err != nil { // empty relations: lowering resolves against them
		return engine.StratumInfo{}, err
	}
	lowered := make([]*loweredRule, len(st.Rules))
	occ := make([][]int, len(st.Rules))
	for k, ri := range st.Rules {
		lr, err := lowerRule(db, p.Rules[ri])
		if err != nil {
			return engine.StratumInfo{}, err
		}
		lowered[k] = lr
		for j, a := range lr.pos {
			if members[a.Rel] {
				occ[k] = append(occ[k], j)
			}
		}
	}
	merge := func(pred string, rows [][]relation.Value, weights []float64, into map[string]map[int]bool) {
		s := states[pred]
		for i, row := range rows {
			k := relation.MakeKey(row)
			if j, ok := s.index[k]; ok {
				folded := d.Plus(s.weights[j], weights[i])
				if !dioid.Eq(d, folded, s.weights[j]) {
					s.weights[j] = folded
					markDelta(into, pred, j)
				}
				continue
			}
			s.index[k] = len(s.rows)
			s.rows = append(s.rows, row)
			s.weights = append(s.weights, weights[i])
			markDelta(into, pred, len(s.rows)-1)
		}
	}
	delta := map[string]map[int]bool{}
	for k, ri := range st.Rules {
		r := p.Rules[ri]
		rows, weights, types, err := evalLowered(db, lowered[k], d)
		if err != nil {
			return engine.StratumInfo{}, err
		}
		for i, t := range types {
			if t != states[r.Head.Pred].types[i] {
				return engine.StratumInfo{}, fmt.Errorf("line %d: rule for %s binds column %d to %s but the stratum schema has %s", r.Line, r.Head.Pred, i+1, t, states[r.Head.Pred].types[i])
			}
		}
		merge(r.Head.Pred, rows, weights, delta)
	}
	passes := 1
	for len(delta) > 0 {
		if err := publish(); err != nil {
			return engine.StratumInfo{}, err
		}
		if passes >= MaxFixpointPasses {
			return engine.StratumInfo{}, fmt.Errorf("line %d: stratum {%s} has not reached a fixpoint after %d passes: weights keep improving (a negative cycle under %T?)", p.Rules[st.Rules[0]].Line, strings.Join(st.Preds, ", "), MaxFixpointPasses, d)
		}
		scratch := db.Clone()
		for _, q := range st.Preds {
			dset := delta[q]
			if len(dset) == 0 {
				continue
			}
			s := states[q]
			drel, err := scratch.NewDerived(deltaName(q), s.attrs, s.types)
			if err != nil {
				return engine.StratumInfo{}, fmt.Errorf("line %d: %v", p.Rules[st.Rules[0]].Line, err)
			}
			idxs := make([]int, 0, len(dset))
			for i := range dset {
				idxs = append(idxs, i)
			}
			sort.Ints(idxs)
			for _, i := range idxs {
				if _, err := drel.TryAdd(s.weights[i], s.rows[i]...); err != nil {
					return engine.StratumInfo{}, fmt.Errorf("line %d: %v", p.Rules[st.Rules[0]].Line, err)
				}
			}
			scratch.AddRelation(drel)
		}
		next := map[string]map[int]bool{}
		for k, ri := range st.Rules {
			r := p.Rules[ri]
			for _, j := range occ[k] {
				pred := lowered[k].pos[j].Rel
				if len(delta[pred]) == 0 {
					continue
				}
				variant := loweredRule{head: lowered[k].head, neg: lowered[k].neg}
				variant.pos = append([]query.Atom(nil), lowered[k].pos...)
				old := variant.pos[j]
				// The delta relation shares the stratum predicate's schema, so
				// the atom's column mapping and predicates carry over verbatim.
				variant.pos[j] = query.Atom{Rel: deltaName(pred), Vars: old.Vars, Cols: old.Cols, Preds: old.Preds}
				rows, weights, _, err := evalLowered(scratch, &variant, d)
				if err != nil {
					return engine.StratumInfo{}, err
				}
				merge(r.Head.Pred, rows, weights, next)
			}
		}
		delta = next
		passes++
	}
	tuples := 0
	for _, q := range st.Preds {
		tuples += len(states[q].rows)
	}
	return engine.StratumInfo{
		Predicates: append([]string(nil), st.Preds...),
		Recursive:  true,
		Rules:      len(st.Rules),
		Tuples:     tuples,
		Iterations: passes,
	}, nil
}

// deltaName is the scratch-database name of a predicate's delta relation.
// '#Δ' cannot appear in an identifier, so it can never collide.
func deltaName(pred string) string { return pred + "#Δ" }

func markDelta(into map[string]map[int]bool, pred string, i int) {
	m := into[pred]
	if m == nil {
		m = map[int]bool{}
		into[pred] = m
	}
	m[i] = true
}

// inferSchemas resolves the column types of a recursive stratum's predicates
// before any tuple exists: propagate types from base and lower-stratum
// relations through rule bodies to heads until stable. A predicate whose
// schema never resolves is derivable only from itself — its fixpoint is
// empty — and defaults to all-int64.
func inferSchemas(db *relation.DB, p *Program, st Stratum, members map[string]bool, states map[string]*fixState) error {
	for changed := true; changed; {
		changed = false
		for _, ri := range st.Rules {
			r := p.Rules[ri]
			s := states[r.Head.Pred]
			if s.types != nil {
				continue
			}
			ts := make([]relation.Type, len(s.attrs))
			have := make([]bool, len(s.attrs))
			headPos := map[string]int{}
			for i, t := range r.Head.Terms {
				headPos[t.Var] = i
			}
			for _, a := range r.Body {
				if a.Negated {
					continue
				}
				var ats []relation.Type
				if members[a.Pred] {
					if ats = states[a.Pred].types; ats == nil {
						continue
					}
				} else {
					rel := db.Relation(a.Pred)
					if rel == nil {
						return fmt.Errorf("line %d: unknown predicate %s: not a base relation, and no rule defines it", a.Line, a.Pred)
					}
					if len(a.Terms) != rel.Arity() {
						return fmt.Errorf("line %d: atom %s has %d terms but relation %s has arity %d", a.Line, a.Pred, len(a.Terms), a.Pred, rel.Arity())
					}
					ats = make([]relation.Type, rel.Arity())
					for i := range ats {
						ats[i] = rel.ColType(i)
					}
				}
				for i, t := range a.Terms {
					if !t.IsVar() {
						continue
					}
					if hp, isHead := headPos[t.Var]; isHead && !have[hp] {
						ts[hp] = ats[i]
						have[hp] = true
					}
				}
			}
			ok := true
			for _, h := range have {
				if !h {
					ok = false
				}
			}
			if ok {
				s.types = ts
				changed = true
			}
		}
	}
	for _, q := range st.Preds {
		if states[q].types == nil {
			states[q].types = make([]relation.Type, len(states[q].attrs))
		}
	}
	return nil
}
