package engine

// The typed row view: the enumeration core ranks and joins dense int64 codes
// (relation.Value) and never learns what they mean; this file is where the
// logical schema comes back. Once per compiled plan every query variable is
// resolved to the logical type of the columns it binds — validated to agree
// across atoms, since an equality join between, say, a string-coded column
// and a raw int64 column would compare codes of unrelated domains — and the
// Iterator carries that resolution so callers (the CLI, the HTTP wire
// format) can decode rows without reaching back into the database.

import (
	"fmt"

	"anyk/internal/query"
	"anyk/internal/relation"
)

// varBinding is the resolved logical domain of one query variable: its type
// and, for dictionary-encoded types, the dictionary its codes live in.
type varBinding struct {
	typ  relation.Type
	dict *relation.Dictionary
}

// typedSchema resolves the logical type of every output variable of q over
// db, validating that all columns a variable joins agree on type and (for
// encoded types) on dictionary. A variable's column is the one it binds
// (Atom.VarCol), not its position among the atom's variables: `_` skips
// columns. It returns the Types and dictionaries of an Iterator over outVars,
// both nil when no output column is dictionary-encoded — the identity decode,
// so Typed() and Types == nil agree on what an untyped session is.
func typedSchema(db *relation.DB, q *query.CQ, outVars []string) ([]relation.Type, []*relation.Dictionary, error) {
	byVar := map[string]varBinding{}
	for _, a := range q.Atoms {
		rel := db.Relation(a.Rel)
		if rel == nil {
			return nil, nil, fmt.Errorf("relation %s not found", a.Rel)
		}
		for i, v := range a.Vars {
			c := a.VarCol(i)
			if c >= rel.Arity() {
				// Arity mismatches surface as compile errors; skip here.
				continue
			}
			b := varBinding{typ: rel.ColType(c)}
			if b.typ != relation.TypeInt64 {
				b.dict = rel.Dict
			}
			prev, seen := byVar[v]
			if !seen {
				byVar[v] = b
				continue
			}
			if prev.typ != b.typ {
				return nil, nil, fmt.Errorf("query %s: variable %s joins a %s column with a %s column (%s) — a join across logical types can never match",
					q.Name, v, prev.typ, b.typ, a.Rel)
			}
			if prev.dict != b.dict {
				return nil, nil, fmt.Errorf("query %s: variable %s joins %s columns encoded by different dictionaries (relation %s); encode all relations of one database through db.Dict()",
					q.Name, v, b.typ, a.Rel)
			}
		}
	}
	typed := false
	for _, v := range outVars {
		typed = typed || byVar[v].dict != nil
	}
	if !typed {
		return nil, nil, nil
	}
	types := make([]relation.Type, len(outVars))
	dicts := make([]*relation.Dictionary, len(outVars))
	for i, v := range outVars {
		// The zero binding (int64, nil dict) stands for head-only variables.
		types[i], dicts[i] = byVar[v].typ, byVar[v].dict
	}
	return types, dicts, nil
}

// Typed reports whether any output column is dictionary-encoded — i.e.
// whether TypedVals is more than the identity.
func (it *Iterator[W]) Typed() bool { return it.dicts != nil }

// TypedVals decodes one row's dense int64 codes into their logical values
// (int64, float64, or string per Types), resolved against the dictionaries
// of the relations the query read. For untyped queries it returns the values
// unchanged, boxed.
func (it *Iterator[W]) TypedVals(vals []relation.Value) []any {
	out := make([]any, len(vals))
	for i, v := range vals {
		if it.dicts != nil && i < len(it.dicts) && it.dicts[i] != nil {
			out[i] = it.dicts[i].Decode(it.Types[i], v)
			continue
		}
		out[i] = v
	}
	return out
}
