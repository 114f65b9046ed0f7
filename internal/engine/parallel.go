package engine

// Parallel execution layer: the bottom-up DP phase of every T-DP tree runs
// across a worker pool, and enumeration is sharded — the first unpruned
// stage's choice set is partitioned round-robin into S independent T-DP
// problems whose ranked streams are merged by a loser tree that preserves the
// global weight order (see DESIGN.md for the partitioning and tie-break
// arguments). Because every solution selects exactly one state of that stage,
// the shards partition the solution space and the merged stream is exactly
// the serial one up to deterministic tie resolution.

import (
	"fmt"
	"sync"
	"time"

	"anyk/internal/core"
	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
	"anyk/internal/obs"
)

// shardStage picks the stage whose choice set is partitioned: the first
// unpruned input with at least two rows (pruned stages cannot be sharded —
// they contribute branch minima, not solution states). Returns -1 when no
// stage qualifies.
func shardStage[W any](inputs []dpgraph.StageInput[W]) int {
	for i, in := range inputs {
		if !in.Prune && in.NumRows() >= 2 {
			return i
		}
	}
	return -1
}

// shardInputs splits one tree into at most s trees by round-robin
// partitioning the shard stage's rows; every other stage is shared. The
// round-robin rule keeps shards balanced regardless of any ordering of the
// input rows. Returns the original tree alone when sharding does not apply.
func shardInputs[W any](inputs []dpgraph.StageInput[W], s int) [][]dpgraph.StageInput[W] {
	si := shardStage(inputs)
	if s < 2 || si < 0 {
		return [][]dpgraph.StageInput[W]{inputs}
	}
	n := inputs[si].NumRows()
	s = min(s, n)
	out := make([][]dpgraph.StageInput[W], s)
	ids := make([]int, 0, (n+s-1)/s)
	for k := range out {
		ids = ids[:0]
		for r := k; r < n; r += s {
			ids = append(ids, r)
		}
		cp := append([]dpgraph.StageInput[W](nil), inputs...)
		cp[si] = inputs[si].Subset(ids)
		out[k] = cp
	}
	return out
}

// enumerateParallel is EnumerateUnion's parallelism > 1 path: shard every
// tree, build and bottom-up all shard graphs across a worker pool, and merge
// the per-shard ranked streams.
func enumerateParallel[W any](d dioid.Dioid[W], trees [][]dpgraph.StageInput[W], outVars []string, alg core.Algorithm, opt Options, p int) (*Iterator[W], error) {
	// The shard layout is a deterministic function of (trees, p), so the
	// built graphs are memoizable per parallelism setting; warm sessions
	// skip straight to wiring up the merge.
	buildSpan := opt.Tracer.Begin("build")
	graphs, err := cachedGraphs(opt, opt.planKey, fmt.Sprintf("p=%d", p), func() ([]unionGraph[W], error) {
		return buildShardGraphs(d, trees, outVars, p, opt.Tracer, buildSpan)
	})
	opt.Tracer.End(buildSpan)
	if err != nil {
		return nil, err
	}
	if len(graphs) == 0 { // no trees at all
		return &Iterator[W]{Vars: outVars, it: emptyIter[W]{}, Trees: 0, trace: opt.Tracer, delays: opt.Tracer.DelayBuf(), born: time.Now()}, nil
	}
	mergeSpan := opt.Tracer.Begin("merge")
	iters := make([]core.RowIter[W], 0, len(graphs))
	for _, ug := range graphs {
		if ug.g.Empty() {
			continue
		}
		iters = append(iters, core.NewGraphIter[W](ug.g, core.New[W](ug.g, alg), ug.tree))
	}
	if len(iters) == 0 {
		opt.Tracer.End(mergeSpan)
		return &Iterator[W]{Vars: outVars, it: emptyIter[W]{}, Trees: len(trees), trace: opt.Tracer, delays: opt.Tracer.DelayBuf(), born: time.Now()}, nil
	}
	m := core.NewParallelMerge[W](d, iters)
	var it core.RowIter[W] = m
	if opt.Dedup {
		it = core.NewDedup[W](it)
	}
	opt.Tracer.End(mergeSpan)
	return &Iterator[W]{Vars: outVars, it: it, Trees: len(trees), Shards: len(iters), closer: m.Close, trace: opt.Tracer, delays: opt.Tracer.DelayBuf(), born: time.Now()}, nil
}

// buildShardGraphs shards every tree and runs build + bottom-up for all
// shards across a worker pool of size p. When sharding degenerated (fewer
// shards than workers), the spare workers go into the per-stage DP
// parallelism instead. Each shard's build gets a child span under parent on
// tr; obs.Trace is concurrency-safe, so the workers record directly.
func buildShardGraphs[W any](d dioid.Dioid[W], trees [][]dpgraph.StageInput[W], outVars []string, p int, tr *obs.Trace, parent obs.SpanID) ([]unionGraph[W], error) {
	type shard struct {
		inputs []dpgraph.StageInput[W]
		tree   int
	}
	var shards []shard
	for ti, inputs := range trees {
		for _, sh := range shardInputs(inputs, p) {
			shards = append(shards, shard{sh, ti})
		}
	}
	if len(shards) == 0 {
		return nil, nil
	}
	workersPer := p / len(shards)
	if workersPer < 1 {
		workersPer = 1
	}
	graphs := make([]unionGraph[W], len(shards))
	errs := make([]error, len(shards))
	sem := make(chan struct{}, p)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			graphs[i], errs[i] = buildGraph(d, shards[i].inputs, outVars, shards[i].tree, workersPer, tr, parent, fmt.Sprintf("shard-%d", i))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return graphs, nil
}
