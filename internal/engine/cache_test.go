package engine_test

// Cache behavior tests live in an external test package so they can drive
// the engine through internal/testkit (which itself imports engine).

import (
	"math/rand"
	"sync"
	"testing"

	"anyk/internal/core"
	"anyk/internal/dataset"
	"anyk/internal/dioid"
	"anyk/internal/engine"
	"anyk/internal/query"
	"anyk/internal/relation"
	"anyk/internal/testkit"
)

// pathDB builds a small deterministic path-query database.
func pathDB(t *testing.T, l, rows, dom int, seed int64) (*query.CQ, *relation.DB) {
	t.Helper()
	q := query.PathQuery(l)
	r := rand.New(rand.NewSource(seed))
	return q, testkit.RandomDB(r, q, rows, dom)
}

func TestCacheHitsAndSharing(t *testing.T) {
	q, db := pathDB(t, 4, 40, 3, 1)
	cache := engine.NewCache(0)
	opt := engine.Options{Parallelism: 1, Cache: cache}
	ref := testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, opt)
	s := cache.Stats()
	if s.Hits != 0 || s.Misses == 0 || s.Entries == 0 {
		t.Fatalf("cold run stats %+v, want misses and entries only", s)
	}
	warm := testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, opt)
	testkit.CompareRanked(t, "warm", dioid.Tropical{}, warm, ref)
	s2 := cache.Stats()
	if s2.Hits == 0 {
		t.Fatalf("warm run stats %+v, want hits", s2)
	}
	if s2.Entries != s.Entries {
		t.Fatalf("warm run grew the cache: %d -> %d entries", s.Entries, s2.Entries)
	}
	// A different algorithm over the same plan+graphs is also a pure hit.
	rec := testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Recursive, opt)
	testkit.CompareRanked(t, "warm/Recursive", dioid.Tropical{}, rec, ref)
	if s3 := cache.Stats(); s3.Entries != s2.Entries {
		t.Fatalf("algorithm switch grew the cache: %d -> %d entries", s2.Entries, s3.Entries)
	}
}

// TestCacheGraphsSharedAcrossParallelism: the graphs do not depend on the
// parallelism, so a p=4 session after a p=1 one finds both the plan and the
// graphs and adds no entry.
func TestCacheGraphsSharedAcrossParallelism(t *testing.T) {
	q, db := pathDB(t, 4, 40, 3, 7)
	cache := engine.NewCache(0)
	ref := testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, engine.Options{Parallelism: 1, Cache: cache})
	before := cache.Stats()
	got := testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, engine.Options{Parallelism: 4, Cache: cache})
	testkit.CompareRanked(t, "p=4 over p=1's graphs", dioid.Tropical{}, got, ref)
	after := cache.Stats()
	if after.Entries != before.Entries || after.Misses != before.Misses || after.Hits != before.Hits+2 {
		t.Fatalf("stats %+v after the p=1 session, %+v after the p=4 one: want two hits (plan, graphs) and nothing else", before, after)
	}
}

// TestCacheInvalidationOnRowAdd mutates a relation after a cached Enumerate
// and asserts the next call observes the new rows, differentially against an
// uncached engine.
func TestCacheInvalidationOnRowAdd(t *testing.T) {
	q, db := pathDB(t, 3, 25, 3, 2)
	cache := engine.NewCache(0)
	for _, p := range []int{1, 4} {
		opt := engine.Options{Parallelism: p, Cache: cache}
		testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, opt) // fill the cache
		rel := db.Relation(q.Atoms[0].Rel)
		rel.Add(0.25, rel.Row(0)...) // a duplicate row with a new cheap weight
		got := testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, opt)
		want := testkit.Collect(t, db, q, dioid.Tropical{}, core.Take2, 1)
		testkit.CompareRanked(t, "after Add", dioid.Tropical{}, got, want)
	}
}

// TestCacheInvalidationOnRelationReplace swaps a whole relation (the upload
// path's copy-on-write shape) and asserts the cached engine follows.
func TestCacheInvalidationOnRelationReplace(t *testing.T) {
	q, db := pathDB(t, 3, 25, 3, 3)
	cache := engine.NewCache(0)
	opt := engine.Options{Parallelism: 1, Cache: cache}
	testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, opt) // fill
	old := db.Relation(q.Atoms[1].Rel)
	repl := relation.New(old.Name, old.Attrs...)
	for i := range old.Size() {
		if i%2 == 0 {
			repl.Add(old.Weights[i]+1, old.Row(i)...)
		}
	}
	db2 := db.Clone()
	db2.AddRelation(repl)
	got := testkit.CollectOpt(t, db2, q, dioid.Tropical{}, core.Take2, opt)
	want := testkit.Collect(t, db2, q, dioid.Tropical{}, core.Take2, 1)
	testkit.CompareRanked(t, "after replace", dioid.Tropical{}, got, want)
	// The original db must still hit its own (unchanged) entries.
	ref := testkit.Collect(t, db, q, dioid.Tropical{}, core.Take2, 1)
	still := testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, opt)
	testkit.CompareRanked(t, "original untouched", dioid.Tropical{}, still, ref)
}

// TestCacheConcurrentWarmSessions drives many concurrent sessions off one
// warm cache (run under -race in CI): cached graphs are shared read-only
// across goroutines, so every stream must still match the reference.
func TestCacheConcurrentWarmSessions(t *testing.T) {
	q, db := pathDB(t, 4, 30, 3, 4)
	cache := engine.NewCache(0)
	for _, p := range []int{1, 2} {
		opt := engine.Options{Parallelism: p, Cache: cache}
		ref := testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, opt) // warm it
		var wg sync.WaitGroup
		streams := make([][]core.Row[float64], 8)
		for i := range streams {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				alg := core.Take2
				if i%2 == 1 {
					alg = core.Recursive
				}
				streams[i] = testkit.CollectOpt(t, db, q, dioid.Tropical{}, alg, opt)
			}(i)
		}
		wg.Wait()
		for _, s := range streams {
			testkit.CompareRanked(t, "concurrent warm", dioid.Tropical{}, s, ref)
		}
	}
}

// TestCacheConcurrentColdMisses races several sessions into an empty cache:
// concurrent misses may compile twice, but every resulting stream must be
// identical and the cache must end up consistent.
func TestCacheConcurrentColdMisses(t *testing.T) {
	q, db := pathDB(t, 4, 30, 3, 5)
	ref := testkit.Collect(t, db, q, dioid.Tropical{}, core.Take2, 1)
	cache := engine.NewCache(0)
	opt := engine.Options{Parallelism: 1, Cache: cache}
	var wg sync.WaitGroup
	streams := make([][]core.Row[float64], 6)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i] = testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, opt)
		}(i)
	}
	wg.Wait()
	for _, s := range streams {
		testkit.CompareRanked(t, "concurrent cold", dioid.Tropical{}, s, ref)
	}
}

// TestCacheKeySeparation pins the key dimensions: a different dioid,
// semantics, or query must never replay another entry's plan.
func TestCacheKeySeparation(t *testing.T) {
	q, db := pathDB(t, 3, 25, 3, 6)
	cache := engine.NewCache(0)
	tropOpt := engine.Options{Parallelism: 1, Cache: cache}
	trop := testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, tropOpt)
	maxp := testkit.CollectOpt(t, db, q, dioid.MaxPlus{}, core.Take2, tropOpt)
	if len(trop) != len(maxp) {
		t.Fatalf("stream lengths diverge: %d vs %d", len(trop), len(maxp))
	}
	wantMax := testkit.Collect(t, db, q, dioid.MaxPlus{}, core.Take2, 1)
	testkit.CompareRanked(t, "maxplus not poisoned", dioid.MaxPlus{}, maxp, wantMax)
	// Distinct query shape.
	q2 := query.StarQuery(3)
	db2 := db.Clone()
	for i, a := range q2.Atoms {
		db2.Alias(a.Rel, db.Relation(q.Atoms[i%len(q.Atoms)].Rel))
	}
	star := testkit.CollectOpt(t, db2, q2, dioid.Tropical{}, core.Take2, tropOpt)
	wantStar := testkit.Collect(t, db2, q2, dioid.Tropical{}, core.Take2, 1)
	testkit.CompareRanked(t, "star not poisoned", dioid.Tropical{}, star, wantStar)
}

// TestCacheFullQueryIgnoresSemantics: Semantics only shapes projections, so a
// full CQ opened under MinWeight after AllWeights finds the same plan and
// graphs — two hits, no new entry.
func TestCacheFullQueryIgnoresSemantics(t *testing.T) {
	q, db := pathDB(t, 4, 30, 3, 8)
	cache := engine.NewCache(0)
	ref := testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, engine.Options{Parallelism: 1, Cache: cache})
	before := cache.Stats()
	got := testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2,
		engine.Options{Parallelism: 1, Cache: cache, Semantics: engine.MinWeight})
	testkit.CompareRanked(t, "MinWeight over AllWeights' plan", dioid.Tropical{}, got, ref)
	after := cache.Stats()
	if after.Entries != before.Entries || after.Misses != before.Misses || after.Hits != before.Hits+2 {
		t.Fatalf("stats %+v after AllWeights, %+v after MinWeight: want two hits and no new entry", before, after)
	}
}

// TestCacheLRUEviction keeps the cache tiny and cycles query shapes through
// it: evicted entries must recompile correctly, and the entry count must
// respect the bound.
func TestCacheLRUEviction(t *testing.T) {
	cache := engine.NewCache(2)
	for trial := 0; trial < 3; trial++ {
		for _, l := range []int{3, 4, 5} {
			q, db := pathDB(t, l, 15, 3, int64(10+l))
			opt := engine.Options{Parallelism: 1, Cache: cache}
			got := testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, opt)
			want := testkit.Collect(t, db, q, dioid.Tropical{}, core.Take2, 1)
			testkit.CompareRanked(t, "evict/recompile", dioid.Tropical{}, got, want)
			if n := cache.Len(); n > 2 {
				t.Fatalf("cache holds %d entries, bound is 2", n)
			}
		}
	}
	if s := cache.Stats(); s.Misses == 0 {
		t.Fatalf("stats %+v: eviction cycle never missed?", s)
	}
}

// TestCachePurge drops entries but keeps counters.
func TestCachePurge(t *testing.T) {
	q, db := pathDB(t, 3, 15, 3, 20)
	cache := engine.NewCache(0)
	opt := engine.Options{Parallelism: 1, Cache: cache}
	ref := testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, opt)
	if cache.Len() == 0 {
		t.Fatal("no entries after a cold run")
	}
	before := cache.Stats()
	cache.Purge()
	if cache.Len() != 0 {
		t.Fatalf("Len after Purge = %d", cache.Len())
	}
	if s := cache.Stats(); s.Hits != before.Hits || s.Misses != before.Misses {
		t.Fatalf("Purge reset counters: %+v vs %+v", s, before)
	}
	got := testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, opt)
	testkit.CompareRanked(t, "recompiled after purge", dioid.Tropical{}, got, ref)
}

// TestCachedProjectionSemantics runs the free-connex projection routes
// (AllWeights and MinWeight) through the cache: the semantics is a key
// dimension and the index-backed dedup must match the uncached engine.
func TestCachedProjectionSemantics(t *testing.T) {
	full := query.PathQuery(3)
	q := query.NewCQ(full.Name, []string{"x1", "x2"}, full.Atoms...)
	r := rand.New(rand.NewSource(30))
	db := testkit.RandomDB(r, q, 25, 3)
	cache := engine.NewCache(0)
	for _, sem := range []engine.Semantics{engine.AllWeights, engine.MinWeight} {
		opt := engine.Options{Parallelism: 1, Cache: cache, Semantics: sem}
		cold := testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, opt)
		warm := testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, opt)
		want := testkit.CollectOpt(t, db, q, dioid.Tropical{}, core.Take2, engine.Options{Parallelism: 1, Semantics: sem})
		testkit.CompareRanked(t, "projection cold "+sem.String(), dioid.Tropical{}, cold, want)
		testkit.CompareRanked(t, "projection warm "+sem.String(), dioid.Tropical{}, warm, want)
	}
}

// TestCacheFailedBuildStoresNothing: a query whose plan compiles but whose
// graphs fail to build (here a head listing x1 twice, which dpgraph.Build
// rejects) is answered with an error and leaves no entry in the cache.
func TestCacheFailedBuildStoresNothing(t *testing.T) {
	q := query.NewCQ("Q", []string{"x1", "x1"}, query.PathQuery(2).Atoms...)
	db := dataset.Uniform(2, 2000, 5)
	cache := engine.NewCache(8)
	for trial := 0; trial < 2; trial++ {
		if _, err := engine.Enumerate[float64](db, q, dioid.Tropical{}, core.Take2, engine.Options{Parallelism: 1, Cache: cache}); err == nil {
			t.Fatal("Enumerate accepted a head listing x1 twice")
		}
		if s := cache.Stats(); s.Entries != 0 {
			t.Fatalf("trial %d: stats %+v after a failed build, want no entries", trial, s)
		}
	}
	if _, err := engine.CountResults(db, q); err == nil {
		t.Fatal("CountResults accepted a head listing x1 twice")
	}
	if s := cache.Stats(); s.Entries != 0 {
		t.Fatalf("stats %+v after CountResults, want no entries", s)
	}
}
