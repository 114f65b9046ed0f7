package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"anyk/internal/obs"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public functions. Parent is the span that caused it (-1 for a
// root); spans of one operation share Op. Times are microseconds since the
// tracer started.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) dur() float64 { return s.EndUS - s.StartUS }

// layerOf is the span's layer: the name up to the first dot ("dpgraph.build"
// → "dpgraph"), a package under internal/ or "bench" for harness work.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// tracer keeps spans in memory until the run ends. begin/end nest through a
// stack and are for the single goroutine running an in-process pipeline; add
// records a finished span with an explicit parent and is what concurrent
// HTTP clients use. A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / 1e3 }

// nextOp starts a new operation: later begin calls carry its id.
func (t *tracer) nextOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	t.stack = t.stack[:0]
	return t.op
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, StartUS: t.us(now), EndUS: -1})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndUS = t.us(now)
	for n := len(t.stack); n > 0 && t.stack[n-1] >= id; n-- {
		t.stack = t.stack[:n-1]
	}
}

// do times f as one span.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// add records a finished span; safe from any goroutine.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartUS: t.us(start), EndUS: t.us(end)})
	return id
}

// setEnd closes a span recorded by add whose end was not yet known.
func (t *tracer) setEnd(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndUS = t.us(end)
}

// importEngine copies the spans the engine recorded on its own
// Options.Tracer under parent, prefixed "engine.": compile, build (with its
// tree children), merge and the retroactive first-next. born is when the
// obs.Trace was created, the zero of its relative timestamps.
func (t *tracer) importEngine(parent int, born time.Time, snap obs.TraceSnapshot) {
	if t == nil {
		return
	}
	op := 0
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	ids := make([]int, len(snap.Spans))
	for i, s := range snap.Spans {
		if s.DurationSeconds < 0 {
			ids[i] = -1
			continue
		}
		p := parent
		if s.Parent >= 0 && ids[s.Parent] >= 0 {
			p = ids[s.Parent]
		}
		start := born.Add(time.Duration(s.StartSeconds * float64(time.Second)))
		end := start.Add(time.Duration(s.DurationSeconds * float64(time.Second)))
		ids[i] = t.add("engine."+s.Name, p, op, start, end)
	}
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since copies the spans recorded from index from on.
func (t *tracer) since(from int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[from:]...)
}

func (t *tracer) snapshot() []span { return t.since(0) }

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap each other (the
// engine's first-next span is recorded retroactively over build and merge)
// and may stick out of the parent; only the covered part of the parent's own
// interval is subtracted, and never twice.
func selfTimes(spans []span) []float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped to
// the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := k.StartUS, k.EndUS
		if lo < parent.StartUS {
			lo = parent.StartUS
		}
		if hi > parent.EndUS {
			hi = parent.EndUS
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	total, end := 0.0, parent.StartUS
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		if v.lo < end {
			v.lo = end
		}
		total += v.hi - v.lo
		end = v.hi
	}
	return total
}

// layerSelfUS sums the self time of the finished spans by layer.
func layerSelfUS(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for i, s := range spans {
		if s.EndUS >= 0 {
			out[layerOf(s.Name)] += self[i]
		}
	}
	return out
}

// spanDurs collects the durations (µs) of every finished span called name.
func spanDurs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.EndUS >= 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// traceFile is what -trace-out holds: the environment, the workload and the
// flat span list (parent ids make it a forest).
type traceFile struct {
	Env      envInfo `json:"env"`
	Workload string  `json:"workload"`
	Spans    []span  `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
