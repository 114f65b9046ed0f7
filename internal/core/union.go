package core

import (
	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
	"anyk/internal/heapq"
)

// Row is an assembled output tuple: values over the output variables, its
// weight, and the index of the decomposition tree that produced it.
type Row[W any] struct {
	Vals   []dpgraph.Value
	Weight W
	Tree   int
}

// RowIter yields output rows in rank order.
type RowIter[W any] interface {
	Next() (Row[W], bool)
}

// graphIter adapts a graph enumerator into a RowIter by assembling rows.
// Output values are carved out of an arena in row-sized full-capacity slices:
// one allocation covers arenaRows rows, each row is still a distinct slice
// that is never overwritten by later calls, so callers may hold a row across
// Next without copying.
type graphIter[W any] struct {
	g     *dpgraph.Graph[W]
	e     Enumerator[W]
	tree  int
	arena []dpgraph.Value
}

// arenaRows is the number of output rows carved from one arena block.
const arenaRows = 256

// NewGraphIter wraps enumerator e over g, tagging rows with tree.
func NewGraphIter[W any](g *dpgraph.Graph[W], e Enumerator[W], tree int) RowIter[W] {
	return &graphIter[W]{g: g, e: e, tree: tree}
}

func (it *graphIter[W]) Next() (Row[W], bool) {
	sol, ok := it.e.Next()
	if !ok {
		return Row[W]{}, false
	}
	n := len(it.g.OutVars)
	if len(it.arena)+n > cap(it.arena) {
		it.arena = make([]dpgraph.Value, 0, arenaRows*n)
	}
	off := len(it.arena)
	it.arena = it.arena[:off+n]
	row := it.g.AssembleRow(sol.States, it.arena[off:off+n:off+n])
	return Row[W]{Vals: row, Weight: sol.Weight, Tree: it.tree}, true
}

// Stats passes through to the underlying enumerator so wrapping in a
// graphIter does not hide the MEM(k) counters from callers.
func (it *graphIter[W]) Stats() Stats {
	if sr, ok := it.e.(StatsReporter); ok {
		return sr.Stats()
	}
	return Stats{}
}

// unionIter realizes UT-DP (Section 5.2): a top-level priority queue holds
// the current head row of every T-DP enumerator; popping a row advances its
// source.
type unionIter[W any] struct {
	iters []RowIter[W]
	pq    *heapq.Heap[unionHead[W]]
}

// unionHead is a source's current row beside the source's index, so that
// rows pass through with the Tree tags their sources gave them.
type unionHead[W any] struct {
	row Row[W]
	src int
}

// NewUnion merges several ranked row iterators into one ranked stream.
func NewUnion[W any](d dioid.Dioid[W], iters ...RowIter[W]) RowIter[W] {
	u := &unionIter[W]{iters: iters}
	heads := make([]unionHead[W], 0, len(iters))
	for i, it := range iters {
		if r, ok := it.Next(); ok {
			heads = append(heads, unionHead[W]{r, i})
		}
	}
	u.pq = heapq.From(heads, func(a, b unionHead[W]) bool { return d.Less(a.row.Weight, b.row.Weight) })
	return u
}

func (u *unionIter[W]) Next() (Row[W], bool) {
	top, ok := u.pq.Pop()
	if !ok {
		return Row[W]{}, false
	}
	if r, ok2 := u.iters[top.src].Next(); ok2 {
		u.pq.Push(unionHead[W]{r, top.src})
	}
	return top.row, true
}

// Stats sums the per-tree enumerator counters: each branch of a UT-DP union
// holds its candidate queue live at the same time, so memory adds up.
func (u *unionIter[W]) Stats() Stats {
	var total Stats
	for _, it := range u.iters {
		if sr, ok := it.(StatsReporter); ok {
			total.Add(sr.Stats())
		}
	}
	return total
}

// dedupIter drops consecutive rows with identical values. With a
// tie-breaking dioid (Section 6.3) duplicates produced by overlapping
// decompositions are guaranteed to arrive consecutively, so this filter
// restores set semantics with O(#trees) extra delay.
type dedupIter[W any] struct {
	in   RowIter[W]
	prev []dpgraph.Value
	have bool
}

// NewDedup wraps it with consecutive-duplicate elimination.
func NewDedup[W any](it RowIter[W]) RowIter[W] { return &dedupIter[W]{in: it} }

func (d *dedupIter[W]) Next() (Row[W], bool) {
	for {
		r, ok := d.in.Next()
		if !ok {
			return Row[W]{}, false
		}
		if d.have && equalVals(d.prev, r.Vals) {
			continue
		}
		d.have = true
		d.prev = append(d.prev[:0], r.Vals...)
		return r, true
	}
}

func equalVals(a, b []dpgraph.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Stats passes through the dedup filter unchanged.
func (d *dedupIter[W]) Stats() Stats {
	if sr, ok := d.in.(StatsReporter); ok {
		return sr.Stats()
	}
	return Stats{}
}
