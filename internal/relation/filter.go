package relation

// Filtered access paths: selection predicates pushed down to the scan. A
// ScanPred is a *compiled* predicate — column positions plus physical
// comparison codes, produced by query.Atom.ScanPreds against this relation's
// schema and dictionary — and the methods here answer it without copying
// whole rows: FilterScan yields the qualifying row ids, FilteredGroupIndex
// groups only those ids by their key columns, and SortedPerm memoizes a
// per-column sort permutation so inequality predicates become binary-searched
// ranges instead of full scans.
//
// Every memoized filtered structure keys on the canonical predicate
// signature PredSig, which embeds the marker "flt|"; IndexEntries classifies
// memo entries by that marker so the server can report how much derived
// state serves filtered access paths.

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// CmpOp enumerates the compiled comparison operators. It mirrors
// query.PredOp; the two are separate types so this package stays free of
// query-layer imports.
type CmpOp int

const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
	// CmpColEq compares two columns of the same row for equality.
	CmpColEq
)

func (op CmpOp) String() string {
	switch op {
	case CmpEq, CmpColEq:
		return "="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	}
	return "CmpOp(" + strconv.Itoa(int(op)) + ")"
}

// ScanPred is one compiled selection predicate over a relation's physical
// columns. Equality-class operators (CmpEq, CmpNe, CmpColEq) compare raw
// stored codes — sound for every column type, since dictionary interning
// maps equal logical values to equal codes. Ordered operators compare either
// the raw int64 value (Float false) or, for dictionary-encoded float64
// columns whose codes are not order-preserving, the decoded logical float
// against F (Float true). Rows whose code the dictionary cannot decode never
// match an ordered predicate.
type ScanPred struct {
	Col   int
	Op    CmpOp
	Col2  int
	Code  Value
	F     float64
	Float bool
}

// key renders one predicate as a canonical memo-key fragment.
func (p ScanPred) key() string {
	if p.Op == CmpColEq {
		return "c" + strconv.Itoa(p.Col) + "=c" + strconv.Itoa(p.Col2)
	}
	if p.Float {
		return "c" + strconv.Itoa(p.Col) + p.Op.String() + "f" + strconv.FormatFloat(p.F, 'g', -1, 64)
	}
	return "c" + strconv.Itoa(p.Col) + p.Op.String() + strconv.FormatInt(p.Code, 10)
}

// PredSig returns the canonical signature of a predicate set: fragments
// sorted, so predicate order never splits the memo, prefixed with the
// "flt|" marker every filtered memo key carries. Empty input returns "".
func PredSig(preds []ScanPred) string {
	if len(preds) == 0 {
		return ""
	}
	frags := make([]string, len(preds))
	for i, p := range preds {
		frags[i] = p.key()
	}
	sort.Strings(frags)
	return "flt|" + strings.Join(frags, "&")
}

func (r *Relation) matchPred(i int, p *ScanPred) bool {
	v := r.cols[p.Col][i]
	switch p.Op {
	case CmpColEq:
		return v == r.cols[p.Col2][i]
	case CmpEq:
		return v == p.Code
	case CmpNe:
		return v != p.Code
	}
	if p.Float {
		f, ok := r.Dict.DecodeFloat(v)
		if !ok {
			return false
		}
		switch p.Op {
		case CmpLt:
			return f < p.F
		case CmpLe:
			return f <= p.F
		case CmpGt:
			return f > p.F
		case CmpGe:
			return f >= p.F
		}
		return false
	}
	switch p.Op {
	case CmpLt:
		return v < p.Code
	case CmpLe:
		return v <= p.Code
	case CmpGt:
		return v > p.Code
	case CmpGe:
		return v >= p.Code
	}
	return false
}

// MatchRow reports whether row i satisfies every predicate.
func (r *Relation) MatchRow(i int, preds []ScanPred) bool {
	for k := range preds {
		if !r.matchPred(i, &preds[k]) {
			return false
		}
	}
	return true
}

// FilterScan returns the row ids satisfying preds, ascending, memoized under
// the canonical predicate signature. Ascending order is load-bearing: stage
// inputs built over the filtered ids enumerate rows in exactly the order a
// pre-materialized filtered copy would, so ranked results (including ties)
// agree bit for bit with the materialized baseline. An empty preds slice
// returns nil, meaning "unfiltered" — callers scan all rows directly rather
// than materializing an identity id list.
func (r *Relation) FilterScan(preds []ScanPred) []int {
	if len(preds) == 0 {
		return nil
	}
	return r.Memo("scan:"+PredSig(preds), func() any {
		return r.filterScan(preds)
	}).([]int)
}

func (r *Relation) filterScan(preds []ScanPred) []int {
	ids := []int{} // non-nil even when empty: nil means "unfiltered"
	if d := orderedPred(preds); d >= 0 {
		// Range-driven path: binary-search the sorted permutation of the
		// first ordered predicate's column, then verify the (superset)
		// candidate range against the full predicate set.
		p := &preds[d]
		perm := r.SortedPerm(p.Col, p.Float)
		lo, hi := r.permRange(perm, p)
		for _, i := range perm[lo:hi] {
			if r.MatchRow(i, preds) {
				ids = append(ids, i)
			}
		}
		sort.Ints(ids)
		return ids
	}
	for i, n := 0, r.Size(); i < n; i++ {
		if r.MatchRow(i, preds) {
			ids = append(ids, i)
		}
	}
	return ids
}

func orderedPred(preds []ScanPred) int {
	for i, p := range preds {
		switch p.Op {
		case CmpLt, CmpLe, CmpGt, CmpGe:
			return i
		}
	}
	return -1
}

// SortedPerm returns the memoized permutation of r's row ids ordering column
// col ascending — by raw int64 value, or by decoded logical float64 when
// float is true (dictionary codes are dense intern ids, not order-
// preserving). Undecodable codes sort as -Inf; equal keys keep row-id order,
// so the permutation is deterministic. The permutation is a per-column
// structure independent of any particular predicate constant: one sort
// serves every range predicate on the column.
func (r *Relation) SortedPerm(col int, float bool) []int {
	key := "flt|sortperm:" + strconv.Itoa(col)
	if float {
		key += ":f"
	}
	return r.Memo(key, func() any {
		n := r.Size()
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		if float {
			fkeys := make([]float64, n)
			for i, v := range r.cols[col] {
				f, ok := r.Dict.DecodeFloat(v)
				if !ok {
					f = math.Inf(-1)
				}
				fkeys[i] = f
			}
			sort.SliceStable(perm, func(x, y int) bool { return fkeys[perm[x]] < fkeys[perm[y]] })
			return perm
		}
		vals := r.cols[col]
		sort.SliceStable(perm, func(x, y int) bool { return vals[perm[x]] < vals[perm[y]] })
		return perm
	}).([]int)
}

// permRange binary-searches perm (sorted ascending on p's column) for the
// half-open candidate range satisfying the ordered predicate p. The range is
// a superset for float columns (undecodable codes sort as -Inf but match
// nothing); callers re-check candidates with MatchRow.
func (r *Relation) permRange(perm []int, p *ScanPred) (lo, hi int) {
	n := len(perm)
	if p.Float {
		at := func(k int) float64 {
			f, ok := r.Dict.DecodeFloat(r.cols[p.Col][perm[k]])
			if !ok {
				return math.Inf(-1)
			}
			return f
		}
		switch p.Op {
		case CmpLt:
			return 0, sort.Search(n, func(k int) bool { return at(k) >= p.F })
		case CmpLe:
			return 0, sort.Search(n, func(k int) bool { return at(k) > p.F })
		case CmpGt:
			return sort.Search(n, func(k int) bool { return at(k) > p.F }), n
		case CmpGe:
			return sort.Search(n, func(k int) bool { return at(k) >= p.F }), n
		}
		return 0, n
	}
	col := r.cols[p.Col]
	switch p.Op {
	case CmpLt:
		return 0, sort.Search(n, func(k int) bool { return col[perm[k]] >= p.Code })
	case CmpLe:
		return 0, sort.Search(n, func(k int) bool { return col[perm[k]] > p.Code })
	case CmpGt:
		return sort.Search(n, func(k int) bool { return col[perm[k]] > p.Code }), n
	case CmpGe:
		return sort.Search(n, func(k int) bool { return col[perm[k]] >= p.Code }), n
	}
	return 0, n
}

// FilteredGroupIndex returns the grouping of the rows of r satisfying preds
// by their values in cols, memoized under the canonical predicate key so warm
// sessions keep their cache advantage: windows in order of first appearance
// among the qualifying rows, none of them empty, each listing original row
// ids ascending, and Find resolving a key over those rows only. With no
// predicates it is GroupIndex.
func (r *Relation) FilteredGroupIndex(cols []int, preds []ScanPred) *Grouping {
	prefix := "groupidx"
	if len(preds) > 0 {
		prefix += ":" + PredSig(preds)
	}
	return r.Memo(colsSig(prefix, cols), func() any {
		ids := r.FilterScan(preds)
		n := r.Size()
		if ids != nil {
			n = len(ids)
		}
		x := NewGrouping(n, nil, r.Gather(cols, ids)...)
		if ids != nil {
			for k, m := range x.members {
				x.members[k] = int32(ids[m])
			}
		}
		return x
	}).(*Grouping)
}

// IndexEntries counts the relation's live memoized derived structures: total
// entries, and the subset serving filtered access paths (filter scans,
// filtered group indexes, sorted permutations, filtered join tries — any key
// carrying the canonical "flt|" marker). Entries from before the last
// mutation count as zero: they are dead and dropped on next Memo call.
func (r *Relation) IndexEntries() (total, filtered int64) {
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	if r.memo == nil || r.memoVersion != r.version.Load() {
		return 0, 0
	}
	for k := range r.memo {
		total++
		if strings.Contains(k, "flt|") {
			filtered++
		}
	}
	return total, filtered
}
