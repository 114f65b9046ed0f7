package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"anyk/internal/core"
	"anyk/internal/dataset"
	"anyk/internal/engine"
	"anyk/internal/relation"
)

// filter_warm_sweep: a resident dataset with its sorted permutations built,
// one plan cache of sweepCacheEntries, and a sweep of distinct predicate
// constants, each queried for its top sweepK and then all of them once more.
// The working set (constants) is larger than the plan cache, so the second
// pass still misses there while Relation.Memo, which is unbounded, keeps every
// constant's scan.
const (
	sweepRows         = 50_000
	sweepConstants    = 200
	sweepK            = 100
	sweepCacheEntries = 64
)

type sweepState struct {
	db    *relation.DB
	cache *engine.Cache
}

func sweepData(cfg config) *relation.DB {
	return dataset.Uniform(4, cfg.size(sweepRows, 5000), cfg.seed)
}

func sweepSetup(cfg config) sweepState {
	db := sweepData(cfg)
	for _, name := range db.Names() {
		db.Relation(name).SortedPerm(0, false)
	}
	return sweepState{db: db, cache: engine.NewCache(sweepCacheEntries)}
}

// sweepBounds draws count distinct constants c so that "x < c" keeps 5–15 %
// of a column drawn uniformly from [0, n/10). The range is cut into count
// equal strata; the seed picks one constant per stratum and the stratum the
// sweep starts at. Strata are then visited a golden-ratio stride apart, so any
// run of consecutive queries covers the range evenly: what the 64-entry plan
// cache holds at the end (the last 64 constants' graphs) is the same mix of
// selectivities under every seed, and live_heap_mb does not depend on which
// constants a shuffle happened to put last.
func sweepBounds(cfg config, count int) []int {
	dom := cfg.size(sweepRows, 5000) / 10
	lo, hi := dom/20, dom*3/20
	if count > hi-lo {
		count = hi - lo
	}
	width := (hi - lo) / count
	stride := int(float64(count) * 0.618)
	for gcd(stride, count) != 1 {
		stride++
	}
	r := rand.New(rand.NewSource(cfg.seed))
	first := r.Intn(count)
	out := make([]int, count)
	for i := range out {
		stratum := (first + i*stride) % count
		out[i] = lo + stratum*width + r.Intn(width)
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func sweepOp(c int) enumOp {
	text := fmt.Sprintf("Q(*) :- R1(x1,x2 | x1 < %d), R2(x2,x3 | x2 < %d), R3(x3,x4 | x3 < %d), R4(x4,x5 | x4 < %d)", c, c, c, c)
	return enumOp{text: text, alg: core.Take2, k: sweepK, ttkAt: sweepK}
}

// sweepOracles computes every constant's expected top-k on its own copy of
// the dataset, so the measured dataset's memo stays cold.
func sweepOracles(cfg config, bounds []int) (map[int]oracle, error) {
	db := sweepData(cfg)
	out := make(map[int]oracle, len(bounds))
	for _, c := range bounds {
		or, err := sweepOp(c).oracleFor(db, false)
		if err != nil {
			return nil, fmt.Errorf("constant %d: %w", c, err)
		}
		out[c] = or
	}
	return out, nil
}

func runSweep(cfg config) (*result, error) {
	res := newResult()
	acc := samples{}
	bounds := sweepBounds(cfg, sweepConstants)
	oracles, err := sweepOracles(cfg, bounds)
	if err != nil {
		return nil, err
	}
	clock := setupClock[sweepState]{acc: acc, setup: func() sweepState { return sweepSetup(cfg) }}
	st := clock.sample()
	for _, c := range bounds[:min(10, len(bounds))] { // discarded warm-up
		sweepOp(c).run(st.db, engine.Options{Parallelism: 1, Cache: st.cache})
	}

	deadline := time.Now().Add(cfg.window())
	for rep := 0; rep < 2 || time.Now().Before(deadline); rep++ {
		st = clock.sample()
		opt := engine.Options{Parallelism: 1, Cache: st.cache}
		before := readMem(true)
		queries := 0
		var got float64
		var busy time.Duration
		for pass := 0; pass < 2; pass++ {
			for _, c := range bounds {
				t := sweepOp(c).run(st.db, opt)
				ok := oracles[c].check(t.stream, t.err)
				res.op(ok)
				queries++
				if !ok {
					continue
				}
				if pass == 0 {
					acc.add("ttf_ms", ms(t.ttf))
					acc.add("ttk_ms", ms(t.ttk))
				}
				got += float64(t.rows)
				busy += t.ttl
			}
		}
		after := readMem(true)
		runtime.KeepAlive(st)
		acc.add("results_per_s", ratio(got, busy.Seconds()))
		acc.add("alloc_mb", (after.total-before.total)/mb/float64(queries))
		acc.add("allocs_per_result", ratio(after.mallocs-before.mallocs, got))
		acc.add("live_heap_mb", (after.heap-before.heap)/mb)
	}
	acc.into(res)
	for _, c := range bounds {
		res.checksum += oracles[c].want.sum
	}
	return res, nil
}

// traceSweep attributes one filtered query to its layers three ways per
// constant pair: the decomposed pipeline on a cold constant, the engine with
// its own tracer and the plan cache on another cold constant, and that same
// constant again (a plan-cache hit).
func traceSweep(cfg config) (*result, error) {
	res := newResult()
	acc := samples{}
	tr := newTracer()
	bounds := sweepBounds(cfg, 2*sweepConstants)
	oracles, err := sweepOracles(cfg, bounds)
	if err != nil {
		return nil, err
	}

	// The relation layer's index builds, on a copy nothing else touches.
	r1 := sweepData(cfg).Relation("R1")
	tr.nextOp()
	t := time.Now()
	tr.do("relation.sorted_perm", func() { r1.SortedPerm(0, false) })
	acc.add("relation.sorted_perm_ms", ms(time.Since(t)))
	t = time.Now()
	tr.do("relation.group_index", func() { r1.GroupIndex([]int{0}) })
	acc.add("relation.group_index_ms", ms(time.Since(t)))

	st := sweepSetup(cfg)
	before := readMem(true)
	cached := engine.Options{Parallelism: 1, Cache: st.cache}
	w := coldWorkload{lower: lowerCQ}
	dominant := []string{"dpgraph.build", "dpgraph.bottomup"}
	deadline := time.Now().Add(cfg.window())
	for i := 0; i+1 < len(bounds) && (i < 8 || time.Now().Before(deadline)); i += 2 {
		// Decomposed pipeline, cold constant, no cache.
		w.op = sweepOp(bounds[i])
		tr.nextOp()
		from := tr.len()
		en, _, err := w.pipeline(tr, st.db, acc)
		ok := oracles[bounds[i]].check(en.stream, err)
		res.op(ok)
		if ok {
			opSpans := tr.since(from)
			recordSpans(acc, opSpans)
			acc.add("bench.pipeline_ttf_ms", ms(en.ttf))
			acc.add("bench.dominant_layer_share", spanShare(opSpans, dominant, en.ttf))
		}

		// Engine, cold constant, then the same constant warm.
		op := sweepOp(bounds[i+1])
		tr.nextOp()
		cold := engineOp(tr, acc, op, st.db, cached)
		tr.nextOp()
		warm := engineOp(tr, samples{}, op, st.db, cached)
		for _, t := range []opTimes{cold, warm} {
			res.op(oracles[bounds[i+1]].check(t.stream, t.err))
		}
		if cold.err == nil && warm.err == nil {
			acc.add("bench.engine_ttf_ms", ms(cold.ttf))
			acc.add("engine.warm_ttf_us", us(warm.ttf))
		}
	}
	after := readMem(true)
	stats := st.cache.Stats()
	var memo, bytes int64
	for _, name := range st.db.Names() {
		total, _ := st.db.Relation(name).IndexEntries()
		memo += total
		bytes += st.db.Relation(name).SizeBytes()
	}
	acc.add("heap_growth_mb", (after.heap-before.heap)/mb)
	acc.add("engine.cache_hit_ratio", ratio(float64(stats.Hits), float64(stats.Hits+stats.Misses)))
	acc.add("engine.cache_entries", float64(stats.Entries))
	acc.add("relation.memo_entries", float64(memo))
	acc.add("relation.resident_mb", float64(bytes)/mb)

	// The same 4-path without predicates, on the resident data, no cache.
	unfiltered := enumOp{text: path4Text, alg: core.Take2, k: sweepK, ttkAt: sweepK}
	var plain []float64
	for rep := 0; rep < 4; rep++ {
		t := unfiltered.run(st.db, serial)
		if t.err != nil {
			return nil, t.err
		}
		if rep > 0 {
			plain = append(plain, ms(t.ttf))
		}
	}
	runtime.KeepAlive(st)
	cold := median(acc["bench.engine_ttf_ms"])
	acc.add("ratio.pushdown_over_unfiltered_ttf", ratio(cold, median(plain)))
	acc.add("ratio.warm_over_cold_ttf", ratio(median(acc["engine.warm_ttf_us"])/1e3, cold))
	acc.add("engine.lowering_ms", median(acc["engine.compile_ms"])-median(acc["query.plan_us"])/1e3)
	acc.add("bench.span_overhead_pct", 100*ratio(median(acc["bench.pipeline_ttf_ms"])-cold, cold))
	acc.into(res)
	res.set("failed_share", ratio(float64(res.failed), float64(res.attempted)), res.attempted)
	res.spans = tr.snapshot()
	return res, nil
}
