package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpansAndTree(t *testing.T) {
	tr := NewTrace()
	build := tr.Begin("build")
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := tr.BeginChild(build, "shard")
			tr.End(sp)
		}(i)
	}
	wg.Wait()
	tr.End(build)
	tr.RecordSpan("first-next", time.Now().Add(-time.Millisecond), time.Now())
	tr.SetCounter("candidates_inserted", 42)

	s := tr.Snapshot()
	if len(s.Spans) != 5 {
		t.Fatalf("spans %d, want 5", len(s.Spans))
	}
	children := 0
	for _, sp := range s.Spans {
		if sp.Name == "shard" {
			children++
			if sp.Parent < 0 || s.Spans[sp.Parent].Name != "build" {
				t.Fatalf("shard span parent %d", sp.Parent)
			}
		}
		if sp.DurationSeconds < 0 {
			t.Fatalf("span %s still open in snapshot", sp.Name)
		}
	}
	if children != 3 {
		t.Fatalf("children %d", children)
	}
	if got := tr.Counter("candidates_inserted"); got != 42 {
		t.Fatalf("counter %d", got)
	}
	tree := s.Tree()
	if !strings.Contains(tree, "build") || !strings.Contains(tree, "  shard") {
		t.Fatalf("tree rendering:\n%s", tree)
	}
}

func TestTraceDelays(t *testing.T) {
	tr := NewTrace()
	b := tr.DelayBuf()
	for i := 0; i < 10; i++ {
		b.Observe(2 * time.Microsecond)
	}
	b.Flush()
	d := tr.DelaySnapshot()
	if d.Count != 10 {
		t.Fatalf("count %d", d.Count)
	}
	if p := d.Quantile(0.99); p != 2e-6 {
		t.Fatalf("p99 %g, want 2e-6", p)
	}
}

// TestNilTraceIsNoOp: a nil *Trace must absorb every call so instrumented
// code paths need no branching.
func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	id := tr.Begin("x")
	tr.End(id)
	tr.BeginChild(id, "y")
	tr.RecordSpan("z", time.Now(), time.Now())
	tr.DelayBuf().Observe(time.Second)
	tr.SetCounter("c", 1)
	if tr.Counter("c") != 0 {
		t.Fatal("nil trace counter")
	}
	s := tr.Snapshot()
	if len(s.Spans) != 0 || s.Delays.Count != 0 {
		t.Fatalf("nil trace snapshot %+v", s)
	}
}

func TestTraceEndIdempotent(t *testing.T) {
	tr := NewTrace()
	id := tr.Begin("x")
	tr.End(id)
	first := tr.Snapshot().Spans[0].DurationSeconds
	time.Sleep(time.Millisecond)
	tr.End(id) // second End must not move the recorded end
	if got := tr.Snapshot().Spans[0].DurationSeconds; got != first {
		t.Fatalf("duration moved %g -> %g", first, got)
	}
	tr.End(-1)  // invalid ids are ignored
	tr.End(999) // out of range ignored
}
