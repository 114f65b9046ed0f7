package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trace records one query's execution phases: named spans (optionally
// nested), a log-bucketed histogram of inter-result delays, and named
// counters for the enumerator memory statistics (candidates inserted, queue
// high-water mark) the paper's MEM(k) analysis is about.
//
// All methods are safe for concurrent use, and safe on a nil receiver, which
// is the no-op trace: code under instrumentation calls t.Begin/t.End
// unconditionally and pays nothing when tracing is off.
type Trace struct {
	start time.Time

	mu    sync.Mutex
	spans []span
	ctrs  map[string]int64

	delays Histogram
}

// span offsets are relative to Trace.start; end < 0 marks a still-open span.
type span struct {
	name   string
	parent int
	start  time.Duration
	end    time.Duration
}

// SpanID identifies a span within its trace. The zero SpanID is the first
// span begun; use BeginChild's return values, never arithmetic.
type SpanID int

// NewTrace returns a Trace whose span offsets count from now.
func NewTrace() *Trace {
	return &Trace{start: time.Now(), ctrs: map[string]int64{}}
}

// Begin opens a root-level span and returns its id.
func (t *Trace) Begin(name string) SpanID { return t.BeginChild(-1, name) }

// BeginChild opens a span under parent (-1 for root level).
func (t *Trace) BeginChild(parent SpanID, name string) SpanID {
	if t == nil {
		return -1
	}
	now := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: int(parent), start: now, end: -1})
	return SpanID(len(t.spans) - 1)
}

// End closes the span. Ending an already-closed or invalid id is a no-op.
func (t *Trace) End(id SpanID) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < len(t.spans) && t.spans[id].end < 0 {
		t.spans[id].end = now
	}
}

// RecordSpan adds an already-measured root-level span with explicit wall
// times (e.g. "first-next", whose start predates the Next call that ends it).
func (t *Trace) RecordSpan(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: -1, start: start.Sub(t.start), end: end.Sub(t.start)})
}

// delayFlushEvery bounds how many observations a DelayBuf holds back before
// publishing: snapshots taken mid-stream lag by at most this many delays.
const delayFlushEvery = 256

// DelayBuf is a buffering accumulator for a trace's inter-result delays.
// Observing straight into the trace's histogram costs several atomic
// read-modify-writes per call — too dear for an enumerator emitting a row
// every few hundred nanoseconds — so the hot path buckets into plain
// counters under one uncontended mutex and batches into the shared histogram
// every delayFlushEvery observations and on Flush. The mutex (rather than owner
// discipline) keeps a Flush racing in from another goroutine — a session
// evicted mid-page flushes from the manager — safe; concurrent DelaySnapshot
// readers are safe because publishing goes through the histogram's atomics.
// All methods are nil-safe.
type DelayBuf struct {
	t *Trace

	mu      sync.Mutex
	pending uint64
	count   uint64
	sum     float64
	max     float64
	counts  [histBuckets + 1]uint32
}

// DelayBuf returns a buffered delay recorder for the trace, or nil (the no-op
// recorder) on a nil trace.
func (t *Trace) DelayBuf() *DelayBuf {
	if t == nil {
		return nil
	}
	return &DelayBuf{t: t}
}

// Observe buffers one inter-result delay, flushing the batch when full.
func (b *DelayBuf) Observe(d time.Duration) {
	if b == nil {
		return
	}
	v := d.Seconds()
	if v < 0 {
		v = 0
	}
	b.mu.Lock()
	b.counts[bucketFor(v)]++
	b.count++
	b.sum += v
	if v > b.max {
		b.max = v
	}
	if b.pending++; b.pending >= delayFlushEvery {
		b.flushLocked()
	}
	b.mu.Unlock()
}

// Flush publishes the buffered observations into the trace's histogram.
func (b *DelayBuf) Flush() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.flushLocked()
	b.mu.Unlock()
}

func (b *DelayBuf) flushLocked() {
	if b.count == 0 {
		return
	}
	b.t.delays.bulkObserve(&b.counts, b.count, b.sum, b.max)
	b.counts = [histBuckets + 1]uint32{}
	b.pending, b.count, b.sum = 0, 0, 0
	// max intentionally survives: it only ever rises, and re-publishing it is
	// idempotent through the histogram's CAS-max.
}

// DelaySnapshot returns the inter-result delay histogram so far.
func (t *Trace) DelaySnapshot() HistSnapshot {
	if t == nil {
		return HistSnapshot{}
	}
	return t.delays.Snapshot()
}

// SetCounter sets a named counter to v (last write wins).
func (t *Trace) SetCounter(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ctrs[name] = v
	t.mu.Unlock()
}

// Counter reads a named counter (0 when unset).
func (t *Trace) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ctrs[name]
}

// SpanSnapshot is one recorded span: Parent indexes the snapshot's Spans
// slice (-1 for root spans), times are seconds since the trace started.
// A negative DurationSeconds marks a span still open at snapshot time.
type SpanSnapshot struct {
	Name            string  `json:"name"`
	Parent          int     `json:"parent"`
	StartSeconds    float64 `json:"start_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`
}

// TraceSnapshot is a point-in-time copy of a trace, JSON-encodable for the
// service's per-session stats endpoint.
type TraceSnapshot struct {
	Spans    []SpanSnapshot   `json:"spans"`
	Delays   HistSnapshot     `json:"delays"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Snapshot copies the trace's spans, delay histogram, and counters.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	snap := TraceSnapshot{Spans: make([]SpanSnapshot, len(t.spans)), Counters: make(map[string]int64, len(t.ctrs))}
	for i, sp := range t.spans {
		dur := -1.0
		if sp.end >= 0 {
			dur = (sp.end - sp.start).Seconds()
		}
		snap.Spans[i] = SpanSnapshot{Name: sp.name, Parent: sp.parent, StartSeconds: sp.start.Seconds(), DurationSeconds: dur}
	}
	for k, v := range t.ctrs {
		snap.Counters[k] = v
	}
	t.mu.Unlock()
	snap.Delays = t.delays.Snapshot()
	return snap
}

// Tree renders the span tree as indented text, one span per line in start
// order, for the CLI's -trace output and debug logs.
func (s TraceSnapshot) Tree() string {
	children := map[int][]int{}
	for i, sp := range s.Spans {
		children[sp.Parent] = append(children[sp.Parent], i)
	}
	for _, c := range children {
		sort.Slice(c, func(i, j int) bool { return s.Spans[c[i]].StartSeconds < s.Spans[c[j]].StartSeconds })
	}
	var sb strings.Builder
	var walk func(id, depth int)
	walk = func(id, depth int) {
		sp := s.Spans[id]
		dur := "open"
		if sp.DurationSeconds >= 0 {
			dur = fmtSeconds(sp.DurationSeconds)
		}
		fmt.Fprintf(&sb, "%s%-*s %s (at %s)\n", strings.Repeat("  ", depth), 24-2*depth, sp.Name, dur, fmtSeconds(sp.StartSeconds))
		for _, c := range children[id] {
			walk(c, depth+1)
		}
	}
	for _, root := range children[-1] {
		walk(root, 0)
	}
	return sb.String()
}

// fmtSeconds renders a duration in seconds with a readable unit.
func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(100 * time.Nanosecond).String()
}
