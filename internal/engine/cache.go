package engine

// The compiled-plan cache: repeated Enumerate calls over an unchanged
// database share the whole preprocessing pipeline instead of re-running it
// per session. Two layers are memoized, both immutable once published:
//
//   - the compiled plan (route selection plus the materialized
//     dpgraph.StageInput trees — projection dedup, cycle bag
//     materialization, GHD bag joins), keyed by
//     (db identity, db version, query, dioid, semantics);
//   - the built, bottom-upped DP graphs, additionally keyed by the shard
//     layout (serial, or parallelism p). Enumerators in package core keep
//     all per-enumeration state outside the graph, so one graph serves any
//     number of concurrent sessions and any algorithm.
//
// Invalidation is by construction: relation.DB.Version() is monotone over
// every mutation, so a mutated database simply misses and compiles fresh
// entries, and stale versions age out of the LRU.

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
	"anyk/internal/obs"
	"anyk/internal/query"
	"anyk/internal/relation"
)

// defaultCacheEntries bounds a Cache when the caller does not: plans and
// graphs are memory-heavy (same order as the data), so the default keeps a
// handful of hot query shapes per dataset rather than an unbounded history
// of versions.
const defaultCacheEntries = 64

// Cache memoizes compiled plans and built DP graphs across Enumerate calls.
// It is safe for concurrent use; concurrent misses on the same key may both
// compile, and the last store wins — the values are bit-identical, so either
// is valid. The zero value is not usable; call NewCache.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used; values are *cacheEntry
	hits    atomic.Int64
	misses  atomic.Int64
}

type cacheEntry struct {
	key string
	val any
}

// NewCache returns a Cache holding at most maxEntries memoized values
// (plans and graph sets count separately); maxEntries < 1 applies the
// default of 64.
func NewCache(maxEntries int) *Cache {
	if maxEntries < 1 {
		maxEntries = defaultCacheEntries
	}
	return &Cache{max: maxEntries, entries: map[string]*list.Element{}, lru: list.New()}
}

// CacheStats is a counter snapshot.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// Stats returns the cache's hit/miss counters and current size.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Purge drops every entry, keeping the counters. The HTTP service calls it
// when a dataset is replaced or mutated: the version-qualified keys already
// make stale entries unreachable, purging just releases their memory at the
// moment it is known to be dead.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*list.Element{}
	c.lru.Init()
}

// lookup fetches a value and counts the outcome. The value is read under
// the lock: a concurrent store on the same key overwrites the entry's val
// in place, so reading it after unlock would race.
func (c *Cache) lookup(key string) (any, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	var v any
	if ok {
		c.lru.MoveToFront(e)
		v = e.Value.(*cacheEntry).val
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return v, true
	}
	c.misses.Add(1)
	return nil, false
}

// store publishes a value, evicting the least-recently-used entries over
// capacity. v must be immutable from this point on.
func (c *Cache) store(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.Value.(*cacheEntry).val = v
		c.lru.MoveToFront(e)
		return
	}
	for c.lru.Len() >= c.max {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.lru.Remove(oldest)
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, val: v})
}

// GetOrBuild returns the cached value under key, or calls build, stores its
// result, and returns it (hit reports which happened). It is the hook for
// callers that memoize their own derived artifacts — the Datalog front-end
// caches whole materialized programs this way — with the same LRU, the same
// counters, and the same rule: the stored value must be immutable. Like the
// internal layers, concurrent misses on one key may both build and the last
// store wins, so build must be idempotent.
func (c *Cache) GetOrBuild(key string, build func() (any, error)) (v any, hit bool, err error) {
	if v, ok := c.lookup(key); ok {
		return v, true, nil
	}
	v, err = build()
	if err != nil {
		return nil, false, err
	}
	c.store(key, v)
	return v, false, nil
}

// planCacheKey identifies a compiled plan: the database instance and
// version pin the data, the query string the shape, and the dioid (its
// concrete type including parameters, which also encodes the weight type W)
// plus the projection semantics pin the lifted weights. The algorithm and
// parallelism are deliberately absent — they act downstream of the compiled
// plan (enumerator choice, shard layout).
func planCacheKey[W any](db *relation.DB, q *query.CQ, d dioid.Dioid[W], sem Semantics) string {
	return fmt.Sprintf("db=%d.%d|q=%s|d=%T%+v|sem=%d", db.ID(), db.Version(), q.String(), d, d, sem)
}

// prepared is one compiled plan: the immutable stage-input trees of the
// chosen decomposition route plus the plan description. Cached instances
// are shared between sessions, so nothing reachable from here may be
// mutated; dpgraph.Build and the shard splitter only read the inputs.
type prepared[W any] struct {
	trees   [][]dpgraph.StageInput[W]
	outVars []string
	// plan is the PlanInfo skeleton (route, width, bags); Enumerate copies
	// it before stamping per-iterator fields (trees, shards, parallelism).
	plan PlanInfo
}

// prepare returns the compiled plan for (db, q, d, semantics), consulting
// opt.Cache when set. The returned key is the plan cache key ("" when
// caching is off); graph-level memoization derives its keys from it. hit
// reports whether the plan came out of the cache (always false without one).
func prepare[W any](db *relation.DB, q *query.CQ, d dioid.Dioid[W], opt Options) (p *prepared[W], key string, hit bool, err error) {
	if opt.Cache == nil {
		p, err = compile[W](db, q, d, opt)
		return p, "", false, err
	}
	key = planCacheKey(db, q, d, opt.Semantics)
	if v, ok := opt.Cache.lookup(key + "|plan"); ok {
		if p, ok := v.(*prepared[W]); ok {
			return p, key, true, nil
		}
	}
	p, err = compile[W](db, q, d, opt)
	if err != nil {
		return nil, "", false, err
	}
	opt.Cache.store(key+"|plan", p)
	return p, key, false, nil
}

// cachedGraphs memoizes the build+bottom-up of a plan's trees under the
// given shard layout. build must return graphs that are never mutated
// afterwards (dpgraph graphs are read-only once BottomUp has run — all
// enumerator state lives in package core's per-enumerator structures).
func cachedGraphs[W any](opt Options, planKey, layout string, build func() ([]unionGraph[W], error)) ([]unionGraph[W], error) {
	caching := opt.Cache != nil && planKey != ""
	key := planKey + "|graphs/" + layout
	if caching {
		if v, ok := opt.Cache.lookup(key); ok {
			if gs, ok := v.([]unionGraph[W]); ok {
				traceGraphs(opt.Tracer, gs)
				return gs, nil
			}
		}
	}
	gs, err := build()
	if err != nil {
		return nil, err
	}
	if caching {
		opt.Cache.store(key, gs)
	}
	traceGraphs(opt.Tracer, gs)
	return gs, nil
}

// unionGraph is one built member of a T-DP union: the graph plus the index
// of the decomposition tree it enumerates (shards of one tree share it), and
// the graph's size figures, taken once at build time so that cache hits can
// report them too.
type unionGraph[W any] struct {
	g    *dpgraph.Graph[W]
	tree int

	states, groups, largestGroup int
	bytes                        int64
}

// buildGraph runs dpgraph.Build and the bottom-up pass (over workers
// goroutines) for one tree or shard, under a span called name with one child
// span per phase: "graph-build" and "bottom-up", the two the benchmark times.
func buildGraph[W any](d dioid.Dioid[W], inputs []dpgraph.StageInput[W], outVars []string, tree, workers int, tr *obs.Trace, parent obs.SpanID, name string) (unionGraph[W], error) {
	sp := tr.BeginChild(parent, name)
	defer tr.End(sp)
	phase := tr.BeginChild(sp, "graph-build")
	g, err := dpgraph.Build[W](d, inputs, outVars)
	tr.End(phase)
	if err != nil {
		return unionGraph[W]{}, fmt.Errorf("tree %d: %w", tree, err)
	}
	phase = tr.BeginChild(sp, "bottom-up")
	g.BottomUpP(workers)
	tr.End(phase)
	ug := unionGraph[W]{g: g, tree: tree, states: g.NumStates(), bytes: g.SizeBytes()}
	ug.groups, ug.largestGroup = g.GroupStats()
	return ug, nil
}

// traceGraphs puts the state-space size of a query's graphs on the trace:
// states, groups and resident bytes summed over its trees and shards, and the
// largest choice set among them.
func traceGraphs[W any](tr *obs.Trace, graphs []unionGraph[W]) {
	if tr == nil {
		return
	}
	var states, groups, largest int
	var bytes int64
	for _, ug := range graphs {
		states += ug.states
		groups += ug.groups
		bytes += ug.bytes
		largest = max(largest, ug.largestGroup)
	}
	tr.SetCounter("dp_states", int64(states))
	tr.SetCounter("dp_groups", int64(groups))
	tr.SetCounter("dp_largest_group", int64(largest))
	tr.SetCounter("dp_bytes", bytes)
}
