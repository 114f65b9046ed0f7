// Package engine is the public API of the library: it routes a conjunctive
// query to the right any-k machinery — acyclic full CQs through a join-tree
// T-DP, simple cycles through the heavy/light UT-DP union, every other
// cyclic full CQ through the generalized hypertree decomposition planner of
// package hypertree, and free-connex projections through the pruned connex
// T-DP — and returns a ranked iterator over output rows.
//
// Typical use:
//
//	it, err := engine.Enumerate[float64](db, query.PathQuery(4), dioid.Tropical{}, core.Take2)
//	for {
//		row, ok := it.Next()
//		if !ok { break }
//		fmt.Println(row.Vals, row.Weight)
//	}
package engine

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"anyk/internal/core"
	"anyk/internal/decomp"
	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
	"anyk/internal/hypertree"
	"anyk/internal/obs"
	"anyk/internal/query"
	"anyk/internal/relation"
)

// Semantics selects how projections are ranked (Section 8.1).
type Semantics int

const (
	// AllWeights enumerates the full query and projects each result,
	// keeping duplicates with their individual witness weights.
	AllWeights Semantics = iota
	// MinWeight returns each distinct projected row once, ranked by the
	// minimum weight over its witnesses; requires a free-connex query.
	MinWeight
)

// Options tunes Enumerate.
type Options struct {
	// Semantics applies to queries with projections; ignored for full CQs.
	Semantics Semantics
	// Dedup filters consecutive duplicate rows (useful with overlapping
	// decompositions; the built-in cycle decomposition is disjoint and does
	// not need it).
	Dedup bool
	// Parallelism is the worker count for the bottom-up DP phase and the
	// shard count for enumeration: each T-DP tree's graph is built once, and
	// the choice set of its first unpruned root child is partitioned into up
	// to Parallelism read-only views whose ranked streams merge through a
	// loser tree that preserves the global weight order. 0 (the zero value)
	// means GOMAXPROCS; 1 selects the fully serial path with no extra
	// goroutines. Iterators built with Parallelism > 1 hold producer
	// goroutines — call Iterator.Close when abandoning them before
	// exhaustion.
	Parallelism int
	// Cache, when non-nil, memoizes the whole preprocessing pipeline —
	// compiled stage-input trees and bottom-upped DP graphs — keyed by
	// (db identity, db version, query, dioid, semantics). Sessions over an
	// unchanged database then share preprocessing and pay only enumerator
	// start-up for their time-to-first-result; any mutation of the database
	// changes its version and misses. Safe for concurrent sessions.
	Cache *Cache
	// Tracer, when non-nil, records per-query phase spans (compile, build,
	// merge, first-next), inter-result delays, and final MEM(k) counters on
	// the trace. Nil (the default) keeps every instrumented path at a single
	// pointer comparison — the zero-cost off switch.
	Tracer *obs.Trace
}

// parallelism resolves the effective worker count.
func (o Options) parallelism() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// PlanInfo reports how Enumerate routed a query: the decomposition route,
// its width, the number of T-DP trees, and — for the GHD route — the bag
// structure. The HTTP service and the CLI surface it verbatim.
type PlanInfo struct {
	// Route is "acyclic" (join-tree T-DP), "simple-cycle" (the §5.3
	// heavy/light union), or "ghd" (the generalized hypertree planner).
	Route string `json:"route"`
	// Width is 1 for acyclic queries, 2 for the simple-cycle bags, and the
	// generalized hypertree width for planned decompositions.
	Width int `json:"width"`
	// Trees is the number of T-DP problems in the union.
	Trees int `json:"trees"`
	// Shards is the number of independent ranked shard streams feeding the
	// loser-tree merge (0 when the serial path ran).
	Shards int `json:"shards,omitempty"`
	// Parallelism is the resolved worker count the parallel layer ran with
	// (0 when the serial path ran).
	Parallelism int `json:"parallelism,omitempty"`
	// Predicates is the number of selection predicates pushed down into the
	// scans across the query's atoms (0 for a pure equi-join).
	Predicates int `json:"predicates,omitempty"`
	// Bags describes the GHD join tree (nil on the other routes).
	Bags []BagInfo `json:"bags,omitempty"`
	// Strata reports the materialization phases a Datalog program ran before
	// this plan's goal query (nil for plain CQ enumeration). Entries are in
	// evaluation order.
	Strata []StratumInfo `json:"strata,omitempty"`
}

// StratumInfo summarizes one evaluated stratum of a Datalog program.
type StratumInfo struct {
	// Predicates are the stratum's derived predicates, sorted.
	Predicates []string `json:"predicates"`
	// Recursive marks semi-naive fixpoint strata.
	Recursive bool `json:"recursive,omitempty"`
	// Rules is the number of program rules defining the stratum.
	Rules int `json:"rules"`
	// Tuples is the total number of derived tuples across Predicates.
	Tuples int `json:"tuples"`
	// Iterations is the number of semi-naive passes a recursive stratum ran
	// until fixpoint (1 for non-recursive strata: the single lowering pass).
	Iterations int `json:"iterations"`
}

// BagInfo is one GHD bag as reported in plans.
type BagInfo struct {
	Vars     []string `json:"vars"`
	Cover    []string `json:"cover"`
	Assigned []string `json:"assigned"`
	// Parent indexes PlanInfo.Bags; -1 marks a root bag.
	Parent int `json:"parent"`
}

// Iterator is a ranked stream of output rows.
type Iterator[W any] struct {
	// Vars is the output schema (order of Row.Vals).
	Vars []string
	// Types is the logical type of each output variable (Vars order): rows
	// carry dense int64 codes, and Types says what TypedVals decodes them to.
	// Nil for untyped iterators (all-int64 schemas), matching
	// Typed() == false.
	// Iterators over one cached plan share it: treat it as read-only.
	Types []relation.Type
	// dicts resolves encoded columns per output variable; nil entries (and a
	// nil slice) mean the column's codes are its values.
	dicts []*relation.Dictionary
	it    core.RowIter[W]
	// Trees reports how many T-DP problems the query decomposed into
	// (1 for acyclic queries, ℓ+1 for ℓ-cycles).
	Trees int
	// Shards is the number of nonempty graph views (dpgraph.Graph.Shards)
	// whose ranked streams the parallel merge combines, summed over the
	// union's trees (0 on the serial path).
	Shards int
	// Plan describes the chosen decomposition route.
	Plan   *PlanInfo
	closer func()

	// trace instrumentation (set only when Options.Tracer was non-nil):
	// born anchors the first-next span, lastNext carries the previous Next's
	// unix-nano timestamp for the inter-result delay histogram, delays
	// buffers histogram observations off the hot path (flushed on exhaustion
	// and Close), statsDone latches the one-shot MEM(k) counter capture.
	// lastNext needs no atomic: it is touched only inside Next, whose callers
	// already serialize (Close never reads it).
	trace     *obs.Trace
	born      time.Time
	lastNext  int64
	delays    *obs.DelayBuf
	statsDone atomic.Bool
}

// Next returns the next row in rank order.
func (it *Iterator[W]) Next() (core.Row[W], bool) {
	if it.trace == nil {
		return it.it.Next()
	}
	return it.tracedNext()
}

// tracedNext is Next with trace bookkeeping: the first call closes the
// first-next span (time-to-first-result, measured from iterator creation),
// every later successful call feeds the inter-result delay histogram, and
// exhaustion captures the final MEM(k) counters.
func (it *Iterator[W]) tracedNext() (core.Row[W], bool) {
	r, ok := it.it.Next()
	now := time.Now()
	prev := it.lastNext
	it.lastNext = now.UnixNano()
	if prev == 0 {
		it.trace.RecordSpan("first-next", it.born, now)
	} else if ok {
		it.delays.Observe(time.Duration(now.UnixNano() - prev))
	}
	if !ok {
		it.finalizeStats()
	}
	return r, ok
}

// Stats reports the enumerator-side MEM(k) counters of the underlying
// stream: exact for serial iterators at any point, and for parallel
// iterators exact once the stream is drained (partial while shard producers
// still run — see core.ParallelMerge.Stats).
func (it *Iterator[W]) Stats() core.Stats {
	if sr, ok := it.it.(core.StatsReporter); ok {
		return sr.Stats()
	}
	return core.Stats{}
}

// finalizeStats flushes the buffered delay observations and copies the final
// MEM(k) counters onto the trace, once.
func (it *Iterator[W]) finalizeStats() {
	if it.trace == nil || !it.statsDone.CompareAndSwap(false, true) {
		return
	}
	it.delays.Flush()
	s := it.Stats()
	it.trace.SetCounter("candidates_inserted", int64(s.CandidatesInserted))
	it.trace.SetCounter("max_queue_size", int64(s.MaxQueueSize))
}

// Close releases the producer goroutines of a parallel iterator. It is
// required when abandoning a Parallelism > 1 stream before exhaustion, a
// no-op otherwise, and idempotent.
func (it *Iterator[W]) Close() {
	if it.closer != nil {
		it.closer()
	}
	it.finalizeStats()
}

// Drain collects up to k rows (k ≤ 0 drains everything). A truncating drain
// (k > 0 reached with the stream not exhausted) closes the iterator so the
// shard producer goroutines of a parallel session are released instead of
// leaking — Drain is a "take the top k and stop" call, not a paging cursor.
// To page incrementally through a parallel iterator, call Next.
func (it *Iterator[W]) Drain(k int) []core.Row[W] {
	var out []core.Row[W]
	for k <= 0 || len(out) < k {
		r, ok := it.Next()
		if !ok {
			return out // exhausted: producers already wound down
		}
		out = append(out, r)
	}
	it.Close()
	return out
}

// Enumerate ranks the answers of q over db under dioid d using the given
// any-k algorithm. With Options.Cache set, the compiled plan and the built
// DP graphs are shared across calls on an unchanged database.
func Enumerate[W any](db *relation.DB, q *query.CQ, d dioid.Dioid[W], alg core.Algorithm, opts ...Options) (*Iterator[W], error) {
	var opt Options
	if len(opts) > 0 {
		opt = opts[0]
	}
	sp := opt.Tracer.Begin("compile")
	prep, planKey, hit, err := prepare[W](db, q, d, opt)
	opt.Tracer.End(sp)
	if err != nil {
		return nil, err
	}
	if hit {
		opt.Tracer.SetCounter("plan_cache_hit", 1)
	} else {
		opt.Tracer.SetCounter("plan_cache_hit", 0)
	}
	it, err := enumerateUnion(d, prep.trees, prep.outVars, planKey, alg, opt)
	if err != nil {
		return nil, fmt.Errorf("query %s: %s plan (width %d) did not lower: %w", q.Name, prep.plan.Route, prep.plan.Width, err)
	}
	if planKey != "" && !hit {
		opt.Cache.store(planKey+"|plan", prep)
	}
	it.Types, it.dicts = prep.types, prep.dicts
	info := prep.plan // copy the cached skeleton before stamping per-run fields
	info.Trees = it.Trees
	if it.Shards > 0 {
		info.Shards, info.Parallelism = it.Shards, opt.parallelism()
	}
	it.Plan = &info
	return it, nil
}

// compile resolves the decomposition route for q and materializes its
// stage-input trees — the entire preprocessing phase up to (but excluding)
// the DP graph build, and the one place a route is chosen. Everything it
// returns is immutable and cacheable.
func compile[W any](db *relation.DB, q *query.CQ, d dioid.Dioid[W], sem Semantics) (*prepared[W], error) {
	if query.IsAcyclic(q) {
		return compileAcyclic(db, q, d, sem)
	}
	if !q.IsFull() {
		return nil, fmt.Errorf("query %s: projections over cyclic queries are not supported", q.Name)
	}
	shape, cycErr := decomp.DetectCycle(q)
	if cycErr != nil {
		// Not a simple cycle: fall back to the generalized hypertree
		// decomposition planner, which handles any cyclic full CQ. Errors
		// name the fallback and its computed width so callers can see which
		// decomposition was attempted.
		plan, err := hypertree.Decompose(q)
		if err != nil {
			return nil, fmt.Errorf("cyclic query %s is not a simple cycle (%v) and the GHD planner fallback failed: %w", q.Name, cycErr, err)
		}
		inputs, err := hypertree.Materialize[W](d, db, plan)
		if err != nil {
			return nil, fmt.Errorf("cyclic query %s is not a simple cycle (%v); its GHD fallback plan (width %d, %d bags) failed: %w",
				q.Name, cycErr, plan.Width, len(plan.Bags), err)
		}
		info := ghdPlanInfo(plan)
		info.Predicates = q.NumPreds()
		return &prepared[W]{trees: [][]dpgraph.StageInput[W]{inputs}, outVars: q.Vars(), plan: info}, nil
	}
	trees, err := decomp.Decompose[W](d, db, shape)
	if err != nil {
		return nil, err
	}
	inputs := make([][]dpgraph.StageInput[W], len(trees))
	for i, tr := range trees {
		inputs[i] = tr.Inputs
	}
	return &prepared[W]{
		trees:   inputs,
		outVars: q.Vars(),
		plan:    PlanInfo{Route: "simple-cycle", Width: 2, Predicates: q.NumPreds()},
	}, nil
}

func ghdPlanInfo(plan *hypertree.Plan) PlanInfo {
	info := PlanInfo{Route: "ghd", Width: plan.Width, Bags: make([]BagInfo, len(plan.Bags))}
	for i, b := range plan.Bags {
		bi := BagInfo{Vars: b.Vars, Parent: b.Parent}
		for _, ai := range b.Cover {
			bi.Cover = append(bi.Cover, plan.AtomString(ai))
		}
		for _, ai := range b.Assigned {
			bi.Assigned = append(bi.Assigned, plan.AtomString(ai))
		}
		info.Bags[i] = bi
	}
	return info
}

// enumerateUnion runs the UT-DP framework (Section 5.2) over a union of T-DP
// stage-input trees, with the graphs cached under planKey (none when it is
// empty). Each tree's graph is built once, whatever the parallelism. With an
// effective parallelism p above 1 every graph is split into up to p views
// (dpgraph.Graph.Shards) whose enumerators feed the parallel loser-tree
// merge, so every route parallelizes through this single seam.
func enumerateUnion[W any](d dioid.Dioid[W], trees [][]dpgraph.StageInput[W], outVars []string, planKey string, alg core.Algorithm, opt Options) (*Iterator[W], error) {
	graphs, err := cachedGraphs(d, trees, outVars, planKey, opt)
	if err != nil {
		return nil, err
	}
	// The merge span covers view carving, enumerator construction and the
	// union/merge/dedup wiring.
	mergeSpan := opt.Tracer.Begin("merge")
	p := opt.parallelism()
	iters := make([]core.RowIter[W], 0, len(graphs))
	for _, ug := range graphs {
		views := []*dpgraph.Graph[W]{ug.g}
		if p > 1 {
			views = ug.g.Shards(p)
		}
		for _, v := range views {
			if !v.Empty() {
				iters = append(iters, core.NewGraphIter[W](v, core.New[W](v, alg), ug.tree))
			}
		}
	}
	res := &Iterator[W]{Vars: outVars, Trees: len(trees), trace: opt.Tracer, delays: opt.Tracer.DelayBuf()}
	switch {
	case len(iters) == 0:
		res.it = emptyIter[W]{}
	case p > 1:
		m := core.NewParallelMerge[W](d, iters)
		res.it, res.Shards, res.closer = m, len(iters), m.Close
	case len(iters) == 1:
		res.it = iters[0]
	default:
		res.it = core.NewUnion[W](d, iters...)
	}
	if opt.Dedup {
		res.it = core.NewDedup[W](res.it)
	}
	opt.Tracer.End(mergeSpan)
	res.born = time.Now()
	return res, nil
}

func compileAcyclic[W any](db *relation.DB, q *query.CQ, d dioid.Dioid[W], sem Semantics) (*prepared[W], error) {
	var plan *query.Plan
	var err error
	minWeight := !q.IsFull() && sem == MinWeight
	if minWeight {
		plan, err = query.ConnexPlan(q)
	} else {
		plan, err = query.FullPlan(q)
	}
	if err != nil {
		return nil, err
	}
	inputs, err := stageInputs(db, plan, d, minWeight)
	if err != nil {
		return nil, err
	}
	return &prepared[W]{
		trees:   [][]dpgraph.StageInput[W]{inputs},
		outVars: q.FreeVars(),
		plan:    PlanInfo{Route: "acyclic", Width: 1, Predicates: q.NumPreds()},
	}, nil
}

// stageInputs lowers the plan's nodes to columnar stage inputs, all the same
// way: choose the relation rows the stage is built from, take each bound
// column at those rows (Relation.Gather), and lift the weights. A stage of
// every row borrows the relation's column blocks, and its weights too when
// Lift is the identity on float64 (liftsIdentically), as windows [:n:n]:
// relations only append past Size() and never change a row below it in
// place, so the window is a snapshot no later SetAt or Add reaches. Every
// other stage gathers blocks of its own. Full nodes take every row, or the
// ascending ids a filtered scan yields, with the row's lifted weight (stage
// index = atom index, so lexicographic and tie-break dioids see the query's
// atom order, and Lift row ids are those of a pre-materialized filtered
// copy). Projected connex nodes and — under MinWeight — pure connex nodes
// take the first row of each window of the relation's cached
// (predicate-aware) grouping, FilteredGroupIndex: the former with weight 1̄
// (their real weights arrive from the pruned originals below, Thm 20), the
// latter Plus-folding the window's weights in row order — the fold order a
// filtered scan produces, so tie-breaking dioids agree.
func stageInputs[W any](db *relation.DB, plan *query.Plan, d dioid.Dioid[W], minWeightQuery bool) ([]dpgraph.StageInput[W], error) {
	order := plan.Order
	posOf := make([]int, len(plan.Nodes))
	for pos, ni := range order {
		posOf[ni] = pos
	}
	inputs := make([]dpgraph.StageInput[W], len(order))
	for pos, ni := range order {
		node := plan.Nodes[ni]
		atom := plan.Q.Atoms[node.Atom]
		rel := db.Relation(atom.Rel)
		if rel == nil {
			return nil, fmt.Errorf("relation %s not found", atom.Rel)
		}
		parent := -1
		if node.Parent >= 0 {
			parent = posOf[node.Parent]
		}
		preds, err := atom.ScanPreds(rel)
		if err != nil {
			return nil, err
		}
		cols := make([]int, len(node.Vars))
		for i, v := range node.Vars {
			c := -1
			for j, av := range atom.Vars {
				if av == v {
					c = atom.VarCol(j)
					break
				}
			}
			if c < 0 {
				return nil, fmt.Errorf("plan node %d: variable %s not in atom %s", ni, v, atom.Rel)
			}
			cols[i] = c
		}
		projected := len(node.Vars) < len(atom.Vars)
		var ids []int                 // source row per stage row; nil = every row, in order
		var groups *relation.Grouping // the rows each stage row stands for, when it is a window
		switch {
		case projected || (minWeightQuery && !node.Prune):
			groups = rel.FilteredGroupIndex(cols, preds)
			ids = make([]int, groups.Len())
			for g := range ids {
				ids[g] = int(groups.Window(int32(g))[0])
			}
		case len(preds) > 0:
			ids = rel.FilterScan(preds)
		}
		blocks := rel.Gather(cols, ids)
		n := rel.Size()
		if ids != nil {
			n = len(ids)
		}
		var weights []W
		if ws, ok := any(&rel.Weights).(*[]W); ok && ids == nil && liftsIdentically(d) {
			weights = (*ws)[:n:n]
		} else {
			weights = make([]W, n)
			lift := func(r int) W { return d.Lift(rel.Weights[r], node.Atom, int64(r)) }
			for k := range weights {
				switch {
				case projected:
					weights[k] = d.One()
				case groups != nil:
					rows := groups.Window(int32(k))
					w := lift(int(rows[0]))
					for _, r := range rows[1:] {
						w = d.Plus(w, lift(int(r)))
					}
					weights[k] = w
				case ids != nil:
					weights[k] = lift(ids[k])
				default:
					weights[k] = lift(k)
				}
			}
		}
		inputs[pos] = dpgraph.StageInput[W]{
			Name:    fmt.Sprintf("%s[%s]", atom.Rel, strings.Join(node.Vars, ",")),
			Vars:    node.Vars,
			Cols:    blocks,
			Weights: weights,
			Parent:  parent,
			Prune:   node.Prune,
		}
	}
	return inputs, nil
}

// liftsIdentically reports whether d.Lift(w, stage, id) is w itself, so that
// a stage of every row may borrow the relation's weights as they are.
func liftsIdentically[W any](d dioid.Dioid[W]) bool {
	switch any(d).(type) {
	case dioid.Tropical, dioid.MaxPlus, dioid.MaxTimes, dioid.MinMax:
		return true
	}
	return false
}

type emptyIter[W any] struct{}

func (emptyIter[W]) Next() (core.Row[W], bool) { return core.Row[W]{}, false }

// CountResults returns the exact output size |out| of q without
// materializing results: it compiles q exactly as Enumerate does (the same
// route choice and lowering, so predicates are pushed down and a projection
// counts its full-join witnesses, as AllWeights enumerates them), builds the
// graphs serially, and sums the counting recurrence over the reduced DP state
// space of each tree. Like Enumerate it rejects projections over cyclic
// queries. The benchmark checks each workload's oracle stream against it
// without materializing the output — Batch runs out of memory on inputs
// any-k handles easily, as the paper observes.
// Cyclic routes pay their decomposition's bag-materialization cost (bounded
// by n^width for GHD plans — the same preprocessing any enumeration of the
// query performs), not the output size; only the counting itself is free.
func CountResults(db *relation.DB, q *query.CQ) (float64, error) {
	d, opt := dioid.Tropical{}, Options{Parallelism: 1}
	prep, _, _, err := prepare[float64](db, q, d, opt)
	if err != nil {
		return 0, err
	}
	graphs, err := cachedGraphs[float64](d, prep.trees, prep.outVars, "", opt)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, ug := range graphs {
		total += core.Count(ug.g)
	}
	return total, nil
}

// BooleanQuery answers the Boolean version QB of q (Section 6.4): it runs
// any-k under the Boolean dioid with the inverted order and reports whether
// a first answer exists, in the same time bound as the top-ranked result.
func BooleanQuery(db *relation.DB, q *query.CQ) (bool, error) {
	it, err := Enumerate[bool](db, q, dioid.Boolean{}, core.Take2)
	if err != nil {
		return false, err
	}
	defer it.Close()
	_, ok := it.Next()
	return ok, nil
}
