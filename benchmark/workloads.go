package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"anyk/internal/core"
	"anyk/internal/datalog"
	"anyk/internal/dataset"
	"anyk/internal/join"
	"anyk/internal/query"
	"anyk/internal/relation"
)

// workload is one named set of inputs. Names are fixed: later issues cite
// them. run measures the end-to-end metrics with tracing off; trace is the
// separate traced run behind the per-layer metrics.
type workload struct {
	name  string
	run   func(cfg config) (*result, error)
	trace func(cfg config) (*result, error)
}

const (
	path4Text  = "Q(*) :- R1(x1,x2), R2(x2,x3), R3(x3,x4), R4(x4,x5)"
	cycle4Text = "Q(*) :- R1(x1,x2), R2(x2,x3), R3(x3,x4), R4(x4,x1)"
	// ghdText is a triangle with a pendant edge: cyclic but not a simple
	// cycle, so it takes the hypertree route with one width-2 bag.
	ghdText      = "Q(*) :- R1(a,b), R2(b,c), R3(c,a), R4(c,d)"
	triangleText = "Q(*) :- R1(a,b), R2(b,c), R3(c,a)"
	hopProgram   = "hop(x,z) :- R1(x,y), R2(y,z).\n?- hop(x,z), R3(z,u)."
	// tcProgram is the recursive microbenchmark of the datalog layer.
	tcProgram = "tc(x,y) :- R1(x,y).\ntc(x,z) :- tc(x,y), R1(y,z).\n?- tc(x,y)."
)

// topK is the k of every top-k workload, drainTTK the row at which a drain
// reads ttk_ms.
const (
	topK     = 1000
	drainTTK = 100_000
)

// workloads lists the eight workloads in reporting order. Sizes at scale 1
// keep one cold op near half a second, so a run's window holds ten or more
// reps; see README.md for what each isolates.
func workloads() []workload {
	uniform := func(n int, seed int64) *relation.DB { return dataset.Uniform(4, n, seed) }
	cold := func(name string, mk func(cfg config) coldWorkload) workload {
		return workload{name: name,
			run:   func(cfg config) (*result, error) { return mk(cfg).run(cfg) },
			trace: func(cfg config) (*result, error) { return mk(cfg).trace(cfg) }}
	}
	drainSpans := []string{"core.init", "core.first_next", "core.next_block"}
	return []workload{
		cold("path_cold_topk", func(cfg config) coldWorkload {
			return coldWorkload{
				op:       enumOp{text: path4Text, alg: core.Take2, k: topK, ttkAt: topK},
				n:        cfg.size(250_000, 2000),
				gen:      uniform,
				lower:    lowerCQ,
				dominant: []string{"dpgraph.build", "dpgraph.bottomup"},
				extras:   scalingExtras,
			}
		}),
		cold("path_drain_part", func(cfg config) coldWorkload {
			return coldWorkload{
				op:       enumOp{text: path4Text, alg: core.Take2, ttkAt: drainTTK},
				n:        cfg.size(1000, 100),
				gen:      uniform,
				lower:    lowerCQ,
				dominant: drainSpans,
				extras:   batchExtras,
			}
		}),
		cold("path_drain_rec", func(cfg config) coldWorkload {
			return coldWorkload{
				op:       enumOp{text: path4Text, alg: core.Recursive, ttkAt: drainTTK},
				n:        cfg.size(1000, 100),
				gen:      uniform,
				lower:    lowerCQ,
				dominant: drainSpans,
				extras:   batchExtras,
			}
		}),
		cold("cycle_union_topk", func(cfg config) coldWorkload {
			return coldWorkload{
				op:       enumOp{text: cycle4Text, alg: core.Lazy, k: topK, ttkAt: topK},
				n:        cfg.size(150_000, 1000),
				gen:      func(n int, seed int64) *relation.DB { return dataset.WorstCaseCycle(4, n, seed) },
				lower:    lowerCycle,
				dominant: []string{"decomp.decompose"},
				// CountResults takes ~11 s on this instance (|out| ≈ 1.1e10),
				// twenty times the op it would be checking.
				skipCount: true,
			}
		}),
		cold("ghd_topk", func(cfg config) coldWorkload {
			return coldWorkload{
				op:       enumOp{text: ghdText, alg: core.Take2, k: topK, ttkAt: topK},
				n:        cfg.size(120_000, 1000),
				gen:      uniform,
				lower:    lowerGHD,
				dominant: []string{"hypertree.materialize"},
				extras:   joinExtras,
			}
		}),
		{name: "filter_warm_sweep", run: runSweep, trace: traceSweep},
		cold("datalog_program", func(cfg config) coldWorkload {
			return coldWorkload{
				op:       enumOp{text: hopProgram, datalog: true, alg: core.Take2, k: topK, ttkAt: topK},
				n:        cfg.size(20_000, 500),
				gen:      uniform,
				lower:    lowerDatalog,
				dominant: []string{"datalog.materialize"},
				extras:   fixpointExtras,
			}
		}),
		{name: "http_sessions", run: runHTTP, trace: traceHTTP},
	}
}

// mode selects the metrics and the run function of one of the two modes.
func (w workload) mode(traced bool) ([]metricDef, func(config) (*result, error)) {
	if traced {
		return perLayer, w.trace
	}
	return endToEnd, w.run
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scalingExtras fits the exponent of TTF in n from the engine's TTF at the
// workload's size and at a quarter of it (the paper's claim is 1).
func scalingExtras(cfg config, w coldWorkload, _ *tracer, acc samples) error {
	small := w.n / 4
	var ttf []float64
	for rep := 0; rep < 4; rep++ {
		db := w.gen(small, cfg.seed)
		runtime.GC()
		t := w.op.run(db, serial)
		if t.err != nil {
			return t.err
		}
		if rep > 0 { // the first rep at a new size is a warm-up
			ttf = append(ttf, ms(t.ttf))
		}
	}
	xs := []float64{math.Log(float64(small)), math.Log(float64(w.n))}
	ys := []float64{math.Log(median(ttf)), math.Log(median(acc["bench.engine_ttf_ms"]))}
	acc.add("ttf_scaling_exp", slope(xs, ys))
	return nil
}

// batchExtras measures the batch baselines the drains are compared with:
// Yannakakis plus a full sort in package join, and core.Batch's time to its
// first row (it must materialize and sort everything first).
func batchExtras(cfg config, w coldWorkload, tr *tracer, acc samples) error {
	q, err := query.Parse(w.op.text)
	if err != nil {
		return err
	}
	db := w.data(cfg.seed)
	runtime.GC()
	tr.nextOp()
	t := time.Now()
	var rs []join.Result
	tr.do("join.yannakakis", func() { rs, err = join.Yannakakis(db, q) })
	if err != nil {
		return err
	}
	tr.do("join.sort", func() { join.SortResults(rs) })
	batch := time.Since(t).Seconds()
	acc.add("join.batch_sort_s", batch)
	acc.add("ratio.anyk_ttl_over_batch", ratio(median(acc["ttl_s"]), batch))

	b := w.op
	b.alg = core.Batch
	rs = nil
	runtime.GC()
	bt := b.run(w.data(cfg.seed), serial)
	if bt.err != nil {
		return bt.err
	}
	acc.add("core.batch_ttf_s", bt.ttf.Seconds())
	return nil
}

// joinExtras times the worst-case-optimal join on the query's cyclic core,
// cold (fresh relations, so the tries are built inside the call).
func joinExtras(cfg config, w coldWorkload, tr *tracer, acc samples) error {
	q, err := query.Parse(triangleText)
	if err != nil {
		return err
	}
	for rep := 0; rep < 3; rep++ {
		db := w.data(cfg.seed)
		runtime.GC()
		tr.nextOp()
		t := time.Now()
		tr.do("join.generic_join", func() { _, err = join.GenericJoin(db, q) })
		if err != nil {
			return err
		}
		acc.add("join.generic_join_ms", ms(time.Since(t)))
	}
	return nil
}

// fixpointExtras runs the recursive stratum evaluator: transitive closure
// over a sparse random graph (1000 edges on 1000 nodes at scale 1).
func fixpointExtras(cfg config, w coldWorkload, tr *tracer, acc samples) error {
	n := cfg.size(1000, 100)
	p, err := datalog.ParseProgram(tcProgram)
	if err != nil {
		return err
	}
	for rep := 0; rep < 3; rep++ {
		db := dataset.UniformDom(1, n, n, cfg.seed)
		before := readMem(true)
		tr.nextOp()
		t := time.Now()
		var mat *datalog.Materialized
		tr.do("datalog.fixpoint", func() { mat, err = datalog.Materialize(db, p, tropical) })
		if err != nil {
			return err
		}
		elapsed := time.Since(t)
		after := readMem(false)
		tuples := 0
		for _, s := range mat.Strata {
			tuples += s.Tuples
		}
		if tuples == 0 {
			return fmt.Errorf("transitive closure derived no tuples")
		}
		acc.add("datalog.fixpoint_ms", ms(elapsed))
		acc.add("datalog.fixpoint_allocs_per_tuple", (after.mallocs-before.mallocs)/float64(tuples))
	}
	return nil
}
