package main

import (
	"fmt"
	"runtime"
	"time"

	"anyk/internal/core"
	"anyk/internal/datalog"
	"anyk/internal/decomp"
	"anyk/internal/dpgraph"
	"anyk/internal/engine"
	"anyk/internal/hypertree"
	"anyk/internal/obs"
	"anyk/internal/query"
	"anyk/internal/relation"
)

// The traced run re-runs one op of a workload as a pipeline of calls into
// each layer's public functions, a span around each call, and checks that the
// pipeline's ranked stream is the one engine.Enumerate produces. Every route
// has its own front half (lowerFunc: text → stage-input trees) and shares the
// back half (dpgraph build, bottom-up, enumeration).

type stageTrees = [][]dpgraph.StageInput[float64]

// lowerFunc is the front half of a route. counts receives the route's work
// counters (rows materialized, trees, width) by per-layer metric name.
type lowerFunc func(tr *tracer, db *relation.DB, text string, counts samples) (stageTrees, []string, error)

// timed runs f inside a span unless an earlier step already failed.
func timed(tr *tracer, err *error, name string, f func() error) {
	if *err != nil {
		return
	}
	tr.do(name, func() { *err = f() })
}

// lowerCQ is the acyclic route: parse, join-tree plan, and the harness's own
// copy of the engine's stage-input lowering (the engine's is not public; its
// real cost is the engine's compile span minus query.plan).
func lowerCQ(tr *tracer, db *relation.DB, text string, _ samples) (stageTrees, []string, error) {
	var (
		err  error
		q    *query.CQ
		plan *query.Plan
		in   []dpgraph.StageInput[float64]
	)
	timed(tr, &err, "query.parse", func() (e error) { q, e = query.Parse(text); return })
	timed(tr, &err, "query.plan", func() (e error) { plan, e = query.FullPlan(q); return })
	timed(tr, &err, "bench.lower", func() (e error) { in, e = lowerPlan(tr, db, plan); return })
	if err != nil {
		return nil, nil, err
	}
	return stageTrees{in}, q.Vars(), nil
}

// lowerPlan builds one stage input per plan node of a full CQ from the
// relation's column blocks and weights: all rows, or the ids a filtered scan
// yields when the atom carries predicates.
func lowerPlan(tr *tracer, db *relation.DB, plan *query.Plan) ([]dpgraph.StageInput[float64], error) {
	posOf := make([]int, len(plan.Nodes))
	for pos, ni := range plan.Order {
		posOf[ni] = pos
	}
	inputs := make([]dpgraph.StageInput[float64], len(plan.Order))
	for pos, ni := range plan.Order {
		node := plan.Nodes[ni]
		atom := plan.Q.Atoms[node.Atom]
		rel := db.Relation(atom.Rel)
		if rel == nil {
			return nil, fmt.Errorf("relation %s not found", atom.Rel)
		}
		if len(node.Vars) != len(atom.Vars) || node.Prune {
			return nil, fmt.Errorf("atom %s: the harness lowers full CQs only", atom.Rel)
		}
		preds, err := atom.ScanPreds(rel)
		if err != nil {
			return nil, err
		}
		n := rel.Size()
		var ids []int
		if len(preds) > 0 {
			tr.do("relation.filter_scan", func() { ids = rel.FilterScan(preds) })
			n = len(ids)
		}
		src := func(i int) int {
			if ids != nil {
				return ids[i]
			}
			return i
		}
		a := len(node.Vars)
		flat := make([]relation.Value, n*a)
		for vi := range node.Vars {
			col := rel.Col(atom.VarCol(vi))
			for i := 0; i < n; i++ {
				flat[i*a+vi] = col[src(i)]
			}
		}
		rows := make([][]relation.Value, n)
		weights := make([]float64, n)
		for i := range rows {
			rows[i] = flat[i*a : (i+1)*a : (i+1)*a]
			r := src(i)
			weights[i] = tropical.Lift(rel.Weights[r], node.Atom, int64(r))
		}
		parent := -1
		if node.Parent >= 0 {
			parent = posOf[node.Parent]
		}
		inputs[pos] = dpgraph.StageInput[float64]{Name: atom.Rel, Vars: node.Vars, Rows: rows, Weights: weights, Parent: parent}
	}
	return inputs, nil
}

// lowerCycle is the simple-cycle route: heavy/light decomposition into ℓ+1
// trees of materialized bags.
func lowerCycle(tr *tracer, db *relation.DB, text string, counts samples) (stageTrees, []string, error) {
	var (
		err   error
		q     *query.CQ
		shape *decomp.CycleShape
		trees []decomp.Tree[float64]
	)
	timed(tr, &err, "query.parse", func() (e error) { q, e = query.Parse(text); return })
	timed(tr, &err, "decomp.detect", func() (e error) { shape, e = decomp.DetectCycle(q); return })
	timed(tr, &err, "decomp.decompose", func() (e error) { trees, e = decomp.Decompose[float64](tropical, db, shape); return })
	if err != nil {
		return nil, nil, err
	}
	out := make(stageTrees, len(trees))
	rows := 0
	for i, t := range trees {
		out[i] = t.Inputs
		for _, in := range t.Inputs {
			rows += len(in.Rows)
		}
	}
	counts.add("decomp.trees", float64(len(trees)))
	counts.add("decomp.stage_rows", float64(rows))
	return out, q.Vars(), nil
}

// lowerGHD is the generalized-hypertree route: plan search, then bag
// materialization through the worst-case-optimal join.
func lowerGHD(tr *tracer, db *relation.DB, text string, counts samples) (stageTrees, []string, error) {
	var (
		err  error
		q    *query.CQ
		plan *hypertree.Plan
		in   []dpgraph.StageInput[float64]
	)
	timed(tr, &err, "query.parse", func() (e error) { q, e = query.Parse(text); return })
	timed(tr, &err, "hypertree.plan", func() (e error) { plan, e = hypertree.Decompose(q); return })
	timed(tr, &err, "hypertree.materialize", func() (e error) { in, e = hypertree.Materialize[float64](tropical, db, plan); return })
	if err != nil {
		return nil, nil, err
	}
	rows := 0
	for _, b := range in {
		rows += len(b.Rows)
	}
	counts.add("hypertree.bag_rows", float64(rows))
	counts.add("hypertree.width", float64(plan.Width))
	return stageTrees{in}, q.Vars(), nil
}

// lowerDatalog is the program front-end: parse, stratify, materialize the
// rules, then lower the goal (an acyclic CQ over the derived database) like
// any other full CQ.
func lowerDatalog(tr *tracer, db *relation.DB, text string, counts samples) (stageTrees, []string, error) {
	var (
		err  error
		p    *datalog.Program
		mat  *datalog.Materialized
		plan *query.Plan
		in   []dpgraph.StageInput[float64]
	)
	timed(tr, &err, "datalog.parse", func() (e error) { p, e = datalog.ParseProgram(text); return })
	timed(tr, &err, "datalog.stratify", func() (e error) { _, e = datalog.Stratify(p); return })
	timed(tr, &err, "datalog.materialize", func() (e error) { mat, e = datalog.Materialize(db, p, tropical); return })
	timed(tr, &err, "query.plan", func() (e error) { plan, e = query.FullPlan(mat.Goal); return })
	timed(tr, &err, "bench.lower", func() (e error) { in, e = lowerPlan(tr, mat.DB, plan); return })
	if err != nil {
		return nil, nil, err
	}
	tuples := 0
	for _, s := range mat.Strata {
		tuples += s.Tuples
	}
	counts.add("datalog.derived_tuples", float64(tuples))
	return stageTrees{in}, mat.Goal.FreeVars(), nil
}

// buildGraphs is the dpgraph layer: one Build and one BottomUp per tree.
func buildGraphs(tr *tracer, trees stageTrees, outVars []string) ([]*dpgraph.Graph[float64], error) {
	graphs := make([]*dpgraph.Graph[float64], len(trees))
	for i, inputs := range trees {
		var err error
		tr.do("dpgraph.build", func() { graphs[i], err = dpgraph.Build[float64](tropical, inputs, outVars) })
		if err != nil {
			return nil, fmt.Errorf("tree %d: %w", i, err)
		}
		tr.do("dpgraph.bottomup", func() { graphs[i].BottomUp() })
	}
	return graphs, nil
}

// blockRows is the number of results one core.next_block span covers; the
// per-result time of a block is one delay sample.
const blockRows = 1024

// enumerated is what the enumeration stage of a pipeline reports besides its
// checkpoints.
type enumerated struct {
	opTimes
	blockNS []float64
	stats   core.Stats
	union   bool
}

// enumerate is the core layer: enumerator construction, the UT-DP union when
// there are several trees, the first Next, and the rest in blocks.
func enumerate(tr *tracer, graphs []*dpgraph.Graph[float64], op enumOp, start time.Time) enumerated {
	var en enumerated
	var it core.RowIter[float64]
	tr.do("core.init", func() {
		var iters []core.RowIter[float64]
		for i, g := range graphs {
			if !g.Empty() {
				iters = append(iters, core.NewGraphIter[float64](g, core.New[float64](g, op.alg), i))
			}
		}
		switch len(iters) {
		case 0:
		case 1:
			it = iters[0]
		default:
			en.union = true
			tr.do("core.union", func() { it = core.NewUnion[float64](tropical, iters...) })
		}
	})
	if it == nil {
		en.ttl = time.Since(start)
		return en
	}
	take := func(limit int) int {
		n := 0
		for n < limit {
			row, ok := it.Next()
			if !ok {
				break
			}
			n++
			en.push(row.Weight)
			if en.rows == op.ttkAt {
				en.ttk = time.Since(start)
			}
		}
		return n
	}
	tr.do("core.first_next", func() { take(1) })
	en.ttf = time.Since(start)
	for more := en.rows == 1; more; {
		limit := blockRows
		if op.k > 0 && op.k-en.rows < limit {
			limit = op.k - en.rows
		}
		if limit <= 0 {
			break
		}
		t := time.Now()
		var n int
		tr.do("core.next_block", func() { n = take(limit) })
		if n > 0 {
			en.blockNS = append(en.blockNS, float64(time.Since(t))/float64(n))
		}
		more = n == limit
	}
	en.ttl = time.Since(start)
	if en.rows < op.ttkAt {
		en.ttk = en.ttl
	}
	if sr, ok := it.(core.StatsReporter); ok {
		en.stats = sr.Stats()
	}
	return en
}

// pipeline runs lower → build → enumerate under one root span and returns the
// stream with its checkpoints and the built graphs.
func (w coldWorkload) pipeline(tr *tracer, db *relation.DB, counts samples) (enumerated, []*dpgraph.Graph[float64], error) {
	root := tr.begin("bench.op")
	defer tr.end(root)
	start := time.Now()
	trees, outVars, err := w.lower(tr, db, w.op.text, counts)
	if err != nil {
		return enumerated{}, nil, err
	}
	graphs, err := buildGraphs(tr, trees, outVars)
	if err != nil {
		return enumerated{}, nil, err
	}
	return enumerate(tr, graphs, w.op, start), graphs, nil
}

// spanMetric maps a span name to the per-layer metric its per-op total feeds
// and the unit conversion from microseconds.
var spanMetric = []struct {
	span, metric string
	perUS        float64
}{
	{"query.parse", "query.parse_us", 1},
	{"query.plan", "query.plan_us", 1},
	{"bench.lower", "bench.lower_ms", 1e-3},
	{"relation.filter_scan", "relation.filter_scan_us", 1},
	{"datalog.parse", "datalog.parse_us", 1},
	{"datalog.stratify", "datalog.stratify_us", 1},
	{"datalog.materialize", "datalog.materialize_ms", 1e-3},
	{"decomp.decompose", "decomp.decompose_ms", 1e-3},
	{"hypertree.plan", "hypertree.plan_us", 1},
	{"hypertree.materialize", "hypertree.materialize_ms", 1e-3},
	{"dpgraph.build", "dpgraph.build_ms", 1e-3},
	{"dpgraph.bottomup", "dpgraph.bottomup_ms", 1e-3},
	{"core.init", "core.init_us", 1},
}

// recordSpans adds one sample per spanMetric entry that occurs among spans:
// the total duration of the spans of that name (one op's worth).
func recordSpans(acc samples, spans []span) {
	total := map[string]float64{}
	for _, s := range spans {
		if s.EndUS >= 0 {
			total[s.Name] += s.dur()
		}
	}
	for _, m := range spanMetric {
		if v, ok := total[m.span]; ok {
			acc.add(m.metric, v*m.perUS)
		}
	}
}

// engineSpanMetric maps the engine's own span names to per-layer metrics.
var engineSpanMetric = map[string]string{
	"compile":    "engine.compile_ms",
	"build":      "engine.build_ms",
	"merge":      "engine.merge_ms",
	"first-next": "engine.first_next_ms",
}

// engineOp runs op through the engine with Options.Tracer set, files the
// engine's own spans under a harness span, and records their durations and the
// engine-side row rate.
func engineOp(tr *tracer, acc samples, op enumOp, db *relation.DB, opt engine.Options) opTimes {
	born := time.Now()
	trace := obs.NewTrace()
	opt.Tracer = trace
	id := tr.begin("engine.enumerate")
	t := op.run(db, opt)
	tr.end(id)
	snap := trace.Snapshot()
	tr.importEngine(id, born, snap)
	if t.err != nil {
		return t
	}
	for _, s := range snap.Spans {
		if m, ok := engineSpanMetric[s.Name]; ok && s.Parent < 0 && s.DurationSeconds >= 0 {
			acc.add(m, s.DurationSeconds*1e3)
		}
	}
	if t.rows > 1 {
		acc.add("engine.drain_rows_per_s", ratio(float64(t.rows-1), (t.ttl-t.ttf).Seconds()))
	}
	return t
}

// trace is the traced run of a cold workload: per rep, the decomposed
// pipeline, the engine with its own tracer on, and the engine untraced (the
// reference the other two are compared with), each on a fresh dataset.
func (w coldWorkload) trace(cfg config) (*result, error) {
	res := newResult()
	acc := samples{}
	tr := newTracer()
	gen := func() *relation.DB { return w.data(cfg.seed) }
	or, err := w.prepare(gen())
	if err != nil {
		return nil, err
	}
	drain := w.op.k <= 0
	var plainTTL, tracedTTL, pipelineTTL []float64
	w.op.run(gen(), serial) // discarded warm-up
	deadline := time.Now().Add(cfg.window())
	for rep := 0; rep < 2 || time.Now().Before(deadline); rep++ {
		db := gen()
		runtime.GC()
		tr.nextOp()
		from := tr.len()
		en, graphs, err := w.pipeline(tr, db, acc)
		ok := or.check(en.stream, err)
		res.op(ok)
		if !ok {
			continue
		}
		opSpans := tr.since(from)
		recordSpans(acc, opSpans)
		w.recordEnumeration(acc, en, opSpans, drain)
		w.microbench(tr, acc, graphs)

		db = gen()
		runtime.GC()
		tr.nextOp()
		traced := engineOp(tr, acc, w.op, db, serial)
		res.op(or.check(traced.stream, traced.err))

		db = gen()
		runtime.GC()
		plain := w.op.run(db, serial)
		res.op(or.check(plain.stream, plain.err))
		acc.add("bench.engine_ttf_ms", ms(plain.ttf))
		plainTTL = append(plainTTL, plain.ttl.Seconds())
		tracedTTL = append(tracedTTL, traced.ttl.Seconds())
		pipelineTTL = append(pipelineTTL, en.ttl.Seconds())
	}
	acc["ttl_s"] = plainTTL
	if w.extras != nil {
		if err := w.extras(cfg, w, tr, acc); err != nil {
			return nil, err
		}
	}
	if err := w.graphFootprint(gen(), acc); err != nil {
		return nil, err
	}
	ttl := median(plainTTL)
	acc.add("obs.trace_overhead_pct", 100*ratio(median(tracedTTL)-ttl, ttl))
	acc.add("bench.span_overhead_pct", 100*ratio(median(pipelineTTL)-ttl, ttl))
	acc.add("engine.lowering_ms", median(acc["engine.compile_ms"])-median(acc["query.plan_us"])/1e3)
	acc.into(res)
	res.set("failed_share", ratio(float64(res.failed), float64(res.attempted)), res.attempted)
	res.spans = tr.snapshot()
	return res, nil
}

// prepare computes the oracle and, for a drain, fixes the ttk checkpoint from
// the output size.
func (w *coldWorkload) prepare(db *relation.DB) (oracle, error) {
	or, err := w.op.oracleFor(db, !w.skipCount)
	if err != nil {
		return or, err
	}
	if w.op.k <= 0 {
		w.op.ttkAt = min(w.op.ttkAt, int(or.count)/2)
	}
	return or, nil
}

// recordEnumeration files what the enumeration stage of one pipeline rep
// measured, and the share of the op the workload's dominant spans took.
func (w coldWorkload) recordEnumeration(acc samples, en enumerated, opSpans []span, drain bool) {
	acc.add("bench.pipeline_ttf_ms", ms(en.ttf))
	if len(en.blockNS) > 0 {
		acc.add("core.block_delay_p50_ns", median(en.blockNS))
		p99, _ := tailAtMost(en.blockNS, 99)
		acc.add("core.block_delay_p99_ns", p99)
		if en.union {
			acc.add("core.union_next_ns", median(en.blockNS))
		}
	}
	acc.add("core.candidates_per_result", ratio(float64(en.stats.CandidatesInserted), float64(en.rows)))
	acc.add("core.max_queue", float64(en.stats.MaxQueueSize))
	// The dominant layer's share is taken of what the workload exists to
	// measure: time to the last row on a drain, to the first row otherwise.
	whole := en.ttf
	if drain {
		whole = en.ttl
	}
	acc.add("bench.dominant_layer_share", spanShare(opSpans, w.dominant, whole))
}

// spanShare is the part of whole that the finished spans called one of names
// took.
func spanShare(spans []span, names []string, whole time.Duration) float64 {
	var sum float64
	for _, s := range spans {
		for _, name := range names {
			if s.Name == name && s.EndUS >= 0 {
				sum += s.dur()
			}
		}
	}
	return ratio(sum, us(whole))
}

// microRows bounds the solutions the enumerator/assembly microbenchmark
// touches per rep.
const microRows = 100_000

// microbench separates the two halves of a graphIter.Next on the first
// non-empty graph of the op just run: the bare enumerator's Next, and
// AssembleRow over the solutions it produced. The graph is immutable after
// BottomUp, so a second enumerator over it sees the same stream.
func (w coldWorkload) microbench(tr *tracer, acc samples, graphs []*dpgraph.Graph[float64]) {
	var g *dpgraph.Graph[float64]
	for _, c := range graphs {
		if !c.Empty() {
			g = c
			break
		}
	}
	if g == nil {
		return
	}
	tr.nextOp()
	limit := microRows
	if w.op.k > 0 {
		limit = w.op.k
	}
	e := core.New[float64](g, w.op.alg)
	width := len(g.Stages)
	sols := make([]int32, 0, limit*width)
	n := 0
	t := time.Now()
	id := tr.begin("core.next_raw")
	for n < limit {
		sol, ok := e.Next()
		if !ok {
			break
		}
		sols = append(sols, sol.States...)
		n++
	}
	tr.end(id)
	nextNS := float64(time.Since(t)) / float64(max(n, 1))
	acc.add("core.next_ns", nextNS)

	row := make([]relation.Value, len(g.OutVars))
	t = time.Now()
	id = tr.begin("dpgraph.assemble")
	for i := 0; i < n; i++ {
		row = g.AssembleRow(sols[i*width:(i+1)*width], row)
	}
	tr.end(id)
	runtime.KeepAlive(row)
	acc.add("dpgraph.assemble_ns_per_row", float64(time.Since(t))/float64(max(n, 1)))
}

// graphFootprint measures what the built state space keeps resident per
// state, and how much of it survives the bottom-up pass. It runs once, apart
// from the timed reps, because it needs collections around the build.
func (w coldWorkload) graphFootprint(db *relation.DB, acc samples) error {
	trees, outVars, err := w.lower(nil, db, w.op.text, samples{})
	if err != nil {
		return err
	}
	before := readMem(true)
	graphs, err := buildGraphs(nil, trees, outVars)
	if err != nil {
		return err
	}
	after := readMem(true)
	states, alive := 0, 0
	for _, g := range graphs {
		states += g.NumStates()
		for _, st := range g.Stages {
			for _, grp := range st.Groups {
				alive += len(grp.Members)
			}
		}
	}
	runtime.KeepAlive(graphs)
	runtime.KeepAlive(trees)
	acc.add("dpgraph.states", float64(states))
	acc.add("dpgraph.bytes_per_state", ratio(after.heap-before.heap, float64(states)))
	acc.add("dpgraph.alive_ratio", ratio(float64(alive), float64(states)))
	return nil
}
