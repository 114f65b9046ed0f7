package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"anyk/internal/core"
	"anyk/internal/datalog"
	"anyk/internal/dioid"
	"anyk/internal/engine"
	"anyk/internal/query"
	"anyk/internal/relation"
)

// config is what one run is asked to do.
type config struct {
	seed    int64
	seconds float64
	// scale multiplies every dataset size (1 = the sizes BENCHMARK.json's
	// bounds were measured at; the smoke test runs at 0.01).
	scale float64
}

// size scales n, never below min (tiny inputs leave a route degenerate).
func (c config) size(n, min int) int {
	v := int(float64(n) * c.scale)
	if v < min {
		v = min
	}
	return v
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

var tropical = dioid.Tropical{}

// serial is the engine configuration of every cold op: the paper's serial
// algorithms, no plan cache.
var serial = engine.Options{Parallelism: 1}

type memSnap struct{ heap, total, mallocs float64 }

// readMem snapshots the allocator; with gc it first collects, so heap is the
// live heap. It collects twice: a sync.Pool hands its contents to a victim
// cache on the first collection and drops them on the second, and the HTTP
// path pools page buffers.
func readMem(gc bool) memSnap {
	if gc {
		runtime.GC()
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{heap: float64(ms.HeapAlloc), total: float64(ms.TotalAlloc), mallocs: float64(ms.Mallocs)}
}

const mb = 1e6

// enumOp is one in-process ranked enumeration: the query (or Datalog program)
// text, the any-k algorithm, how many rows to take (0 = drain) and the row
// at which ttk_ms is read.
type enumOp struct {
	text    string
	datalog bool
	alg     core.Algorithm
	k       int
	ttkAt   int
}

// open parses the text and starts the enumeration; both are inside every
// timed region, as they are for a caller holding only the query string.
func (o enumOp) open(db *relation.DB, alg core.Algorithm, opt engine.Options) (*engine.Iterator[float64], error) {
	if o.datalog {
		p, err := datalog.ParseProgram(o.text)
		if err != nil {
			return nil, err
		}
		return datalog.Enumerate(db, p, tropical, alg, opt)
	}
	q, err := query.Parse(o.text)
	if err != nil {
		return nil, err
	}
	return engine.Enumerate[float64](db, q, tropical, alg, opt)
}

// stream summarizes a ranked stream as the oracle compares it: how many rows,
// the sum of their weights in arrival order, and whether a weight ever
// decreased.
type stream struct {
	rows     int
	sum      float64
	last     float64
	unsorted bool
}

// push accounts for the next row's weight.
func (s *stream) push(w float64) {
	if s.rows > 0 && w < s.last {
		s.unsorted = true
	}
	s.last = w
	s.rows++
	s.sum += w
}

// opTimes is one measured op.
type opTimes struct {
	stream
	ttf, ttk, ttl time.Duration
	err           error
}

// run executes the op against db with opt and times its checkpoints from the
// moment the caller hands over the query text.
func (o enumOp) run(db *relation.DB, opt engine.Options) opTimes {
	var t opTimes
	start := time.Now()
	it, err := o.open(db, o.alg, opt)
	if err != nil {
		t.err = err
		return t
	}
	defer it.Close()
	for o.k <= 0 || t.rows < o.k {
		row, ok := it.Next()
		if !ok {
			break
		}
		t.push(row.Weight)
		if t.rows == 1 {
			t.ttf = time.Since(start)
		}
		if t.rows == o.ttkAt {
			t.ttk = time.Since(start)
		}
	}
	t.ttl = time.Since(start)
	if t.rows < o.ttkAt {
		t.ttk = t.ttl
	}
	return t
}

// oracle is the expected stream of an op, computed during setup by an
// algorithm other than the measured one.
type oracle struct {
	// count is |out| from engine.CountResults (-1 when not computed).
	count float64
	want  stream
}

// oracleFor computes the op's expected result on db, which must be a copy no
// measured op runs on (cyclic routes memoize indexes and tries on the
// relations they touch). A drain is checked against core.Batch, which
// materializes and sorts the whole output; a top-k op, whose output may be far
// too large for that, against the other any-k family (anyK-rec for anyK-part
// ops and vice versa), an independent implementation over the same graph.
func (o enumOp) oracleFor(db *relation.DB, withCount bool) (oracle, error) {
	or := oracle{count: -1}
	if withCount {
		n, err := o.count(db)
		if err != nil {
			return or, fmt.Errorf("oracle count: %w", err)
		}
		or.count = n
	}
	ref := o
	switch {
	case o.k <= 0:
		ref.alg = core.Batch
	case o.alg == core.Recursive:
		ref.alg = core.Take2
	default:
		ref.alg = core.Recursive
	}
	t := ref.run(db, serial)
	if t.err != nil {
		return or, fmt.Errorf("oracle stream (%v): %w", ref.alg, t.err)
	}
	or.want = t.stream
	want := float64(o.k)
	if o.k <= 0 || (or.count >= 0 && or.count < want) {
		want = or.count
	}
	if or.count >= 0 && float64(t.rows) != want {
		return or, fmt.Errorf("oracle stream (%v) has %d rows, CountResults implies %.0f", ref.alg, t.rows, want)
	}
	return or, nil
}

func (o enumOp) count(db *relation.DB) (float64, error) {
	if o.datalog {
		p, err := datalog.ParseProgram(o.text)
		if err != nil {
			return 0, err
		}
		mat, err := datalog.Materialize(db, p, tropical)
		if err != nil {
			return 0, err
		}
		return engine.CountResults(mat.DB, mat.Goal)
	}
	q, err := query.Parse(o.text)
	if err != nil {
		return 0, err
	}
	return engine.CountResults(db, q)
}

// check reports whether a measured stream is the expected one: no error, the
// same number of rows, weights in rank order, and the same weight checksum.
// The two streams add the same weights in the same order, so the tolerance
// only absorbs algorithms associating a row's ⊗-product differently.
func (or oracle) check(s stream, err error) bool {
	if err != nil || s.unsorted || s.rows != or.want.rows {
		return false
	}
	return math.Abs(s.sum-or.want.sum) <= 1e-9*math.Max(1, math.Abs(or.want.sum))
}

// samples accumulates raw per-rep values by metric name; the reported value
// is their median.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// into reports the median of every accumulated series.
func (s samples) into(res *result) {
	for name, xs := range s {
		res.set(name, median(xs), len(xs))
	}
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// coldWorkload is an in-process workload whose every rep runs on a freshly
// generated dataset with no cache, so neither Relation.Memo nor a plan cache
// carries state from one rep to the next.
type coldWorkload struct {
	op enumOp
	// gen generates the dataset at size n; n is the workload's own size (the
	// traced run also measures a quarter of it, for the scaling exponent).
	n   int
	gen func(n int, seed int64) *relation.DB
	// lower is the route's front half as the traced run decomposes it, and
	// dominant the spans whose share of the op the workload's reason claims.
	lower    lowerFunc
	dominant []string
	// skipCount leaves engine.CountResults out of the oracle (the reference
	// stream still fixes the expected row count of a top-k op).
	skipCount bool
	// extras measures what the traced run adds beyond the op itself.
	extras func(cfg config, w coldWorkload, tr *tracer, acc samples) error
}

// data is the workload's dataset under seed.
func (w coldWorkload) data(seed int64) *relation.DB { return w.gen(w.n, seed) }

// setup_s samples. One sample is the mean over consecutive setups that
// together took at least setupGroup: a dataset built in a fraction of a
// millisecond is otherwise one timer reading and a cold cache away from a
// different number. A sample is taken before every rep, so they are spread
// over the whole run: the machine's cores are shared, another tenant's burst
// lasts up to a second or two, and the median must see most of its samples
// outside it.
const setupGroup = 50 * time.Millisecond

// setupClock times a workload's setup. drop, when set, releases a product
// outside the timed region before the next one is made.
type setupClock[T any] struct {
	acc   samples
	setup func() T
	drop  func(T)
}

// sample records one setup_s sample (see setupGroup) and returns the last
// product, every earlier one dropped.
func (c setupClock[T]) sample() T {
	var last T
	var busy time.Duration
	n := 0
	// Every sample starts from a collected heap: whether a collection that
	// the previous op's garbage made due falls inside a setup or not is
	// otherwise a coin toss worth half the setup's time.
	runtime.GC()
	for busy < setupGroup {
		if c.drop != nil && n > 0 {
			c.drop(last)
		}
		t := time.Now()
		last = c.setup()
		busy += time.Since(t)
		n++
	}
	c.acc.add("setup_s", busy.Seconds()/float64(n))
	return last
}

// minReps is the least number of timed reps a run reports a median over,
// however short its window.
const minReps = 3

func (w coldWorkload) run(cfg config) (*result, error) {
	res := newResult()
	acc := samples{}
	fresh := func() *relation.DB { return w.data(cfg.seed) }
	clock := setupClock[*relation.DB]{acc: acc, setup: fresh}
	or, err := w.prepare(clock.sample())
	if err != nil {
		return nil, err
	}
	// One discarded warm-up rep: the first op of a process pays page faults
	// and heap growth that later reps do not.
	w.op.run(fresh(), serial)

	deadline := time.Now().Add(cfg.window())
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		db := clock.sample()
		runtime.GC()
		t := w.op.run(db, serial)
		ok := or.check(t.stream, t.err)
		res.op(ok)
		if !ok {
			continue
		}
		acc.add("ttf_ms", ms(t.ttf))
		acc.add("ttk_ms", ms(t.ttk))
		acc.add("results_per_s", ratio(float64(t.rows), t.ttl.Seconds()))
	}
	w.sampleFirstRow(res, acc, fresh)
	acc.into(res)
	res.checksum = or.want.sum

	// Memory comes from its own untimed rep: reading the live heap needs a
	// collection in the middle of the op.
	m := w.memRep(fresh())
	res.op(or.check(m.stream, m.err))
	res.set("alloc_mb", m.allocMB, 1)
	res.set("allocs_per_result", m.allocsPerResult, 1)
	res.set("live_heap_mb", m.liveHeapMB, 1)
	return res, nil
}

// minFirstRowSamples is how many ttf_ms samples a drain reports its median
// over.
const minFirstRowSamples = 50

// sampleFirstRow tops up a drain's ttf_ms samples with ops that stop after
// row 1. A drain takes a second and its first row less than a millisecond, so
// the window's handful of drains leaves ttf_ms one scheduler hiccup away from
// a different median; what happens after row 1 does not change it.
func (w coldWorkload) sampleFirstRow(res *result, acc samples, fresh func() *relation.DB) {
	if w.op.k > 0 {
		return
	}
	first := w.op
	first.k, first.ttkAt = 1, 1
	for len(acc["ttf_ms"]) < minFirstRowSamples {
		db := fresh()
		runtime.GC()
		t := first.run(db, serial)
		ok := t.err == nil && t.rows == 1
		res.op(ok)
		if !ok {
			return
		}
		acc.add("ttf_ms", ms(t.ttf))
	}
}

type memRep struct {
	stream
	err                                  error
	allocMB, allocsPerResult, liveHeapMB float64
}

// memRep runs the op once, untimed, reading the allocator around it. The live
// heap is taken with the iterator still open: after the first row on a top-k
// op (what preprocessing keeps resident), after the last row on a drain (what
// the enumerator has accumulated, MEM(k) at k = |out|).
func (w coldWorkload) memRep(db *relation.DB) memRep {
	var m memRep
	before := readMem(true)
	it, err := w.op.open(db, w.op.alg, serial)
	if err != nil {
		m.err = err
		return m
	}
	defer it.Close()
	drain := w.op.k <= 0
	for drain || m.rows < w.op.k {
		row, ok := it.Next()
		if !ok {
			break
		}
		m.push(row.Weight)
		if m.rows == 1 && !drain {
			m.liveHeapMB = (readMem(true).heap - before.heap) / mb
		}
	}
	if drain {
		m.liveHeapMB = (readMem(true).heap - before.heap) / mb
	}
	after := readMem(false)
	runtime.KeepAlive(db)
	m.allocMB = (after.total - before.total) / mb
	m.allocsPerResult = ratio(after.mallocs-before.mallocs, float64(m.rows))
	return m
}
