package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileIsExactOrderStatistic(t *testing.T) {
	xs := make([]float64, 0, 200)
	for i := 200; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {90, 180}, {99, 198}, {99.9, 200}, {100, 200}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..200, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{39, 0}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 480)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, used := tailAtMost(xs, 99); used != 95 || v != 456 {
		t.Errorf("tailAtMost(480 samples, 99) = %g at p%g, want 456 at p95", v, used)
	}
}

func TestSelfTimeSubtractsCoveredChildInterval(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.op", StartUS: 0, EndUS: 100},
		{ID: 1, Parent: 0, Name: "dpgraph.build", StartUS: 10, EndUS: 30},
		{ID: 2, Parent: 0, Name: "dpgraph.bottomup", StartUS: 20, EndUS: 50}, // overlaps its sibling
		{ID: 3, Parent: 0, Name: "core.next_block", StartUS: 90, EndUS: 120}, // sticks out of the parent
		{ID: 4, Parent: 1, Name: "relation.filter_scan", StartUS: 12, EndUS: 17},
	}
	self := selfTimes(spans)
	want := []float64{100 - 40 - 10, 20 - 5, 30, 30, 5}
	for i := range want {
		if math.Abs(self[i]-want[i]) > 1e-9 {
			t.Errorf("self time of %s = %g, want %g", spans[i].Name, self[i], want[i])
		}
	}
	layers := layerSelfUS(spans)
	if layers["dpgraph"] != 45 || layers["relation"] != 5 || layers["bench"] != 50 {
		t.Errorf("layer totals = %v", layers)
	}
}

func TestSlopeFitsLogLogExponent(t *testing.T) {
	if got := slope([]float64{1, 2, 3, 4}, []float64{3, 5, 7, 9}); math.Abs(got-2) > 1e-12 {
		t.Errorf("slope of y=2x+1 = %g", got)
	}
	var xs, ys []float64
	for _, n := range []float64{125_000, 250_000, 500_000} {
		xs = append(xs, math.Log(n))
		ys = append(ys, math.Log(3e-6*math.Pow(n, 1.19)))
	}
	if got := slope(xs, ys); math.Abs(got-1.19) > 1e-9 {
		t.Errorf("fitted exponent = %g, want 1.19", got)
	}
}

func TestSetupSampleIsMeanOverGroup(t *testing.T) {
	acc := samples{}
	made, dropped := 0, 0
	clock := setupClock[int]{acc: acc,
		setup: func() int { made++; time.Sleep(time.Millisecond); return made },
		drop:  func(int) { dropped++ }}
	if last := clock.sample(); last != made || made < 2 || dropped != made-1 {
		t.Errorf("sample returned product %d of %d made, %d dropped", last, made, dropped)
	}
	got := acc["setup_s"]
	if len(got) != 1 || got[0] < 1e-3 || got[0] > setupGroup.Seconds() {
		t.Errorf("setup_s samples = %v, want one mean between 1 ms and %v", got, setupGroup)
	}
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestManifestMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, m.Workloads[i].Name, w.name)
		}
		if n := len(m.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, n)
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	// BENCHMARK.json has no field of its own for the frozen phase-A rate; the
	// workload's reason carries it.
	if why, rate := m.Workloads[len(ws)-1].Why, fmt.Sprintf("%d sessions/s", httpRate); !strings.Contains(why, rate) {
		t.Errorf("http_sessions: why %q does not name the frozen rate %q", why, rate)
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end to end, %d per layer", len(m.EndToEnd), len(m.PerLayer))
	}
}

// smoke is the configuration the whole benchmark runs at inside the tests: a
// hundredth of the data and a window short enough for a few seconds in all.
var smoke = config{seed: defaultSeed, seconds: 0.05, scale: 0.01}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res, err := w.run(smoke)
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Fatalf("untraced: attempted %d, failed %d", res.attempted, res.failed)
			}
			for _, d := range endToEnd {
				if v := res.values[d.Name]; !(v > 0) {
					t.Errorf("untraced: %s = %g, want > 0", d.Name, v)
				}
			}
			// A drain's first-row top-up ops are checked ops, not timed reps.
			if n, reps := res.samples["results_per_s"], res.samples["ttk_ms"]; strings.HasPrefix(w.name, "path_drain") && n != reps {
				t.Errorf("untraced: results_per_s rests on %d samples, the run timed %d reps", n, reps)
			}
			if _, err := res.wire(endToEnd); err != nil {
				t.Error(err)
			}

			traced, err := w.trace(smoke)
			if err != nil {
				t.Fatal(err)
			}
			if traced.attempted == 0 || traced.failed != 0 {
				t.Fatalf("traced: attempted %d, failed %d", traced.attempted, traced.failed)
			}
			if len(traced.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			known := map[string]bool{}
			for _, d := range perLayer {
				known[d.Name] = true
			}
			for name := range traced.values {
				if !known[name] {
					t.Errorf("traced run reports %q, which BENCHMARK.json does not list", name)
				}
			}
			if v := traced.values["bench.dominant_layer_share"]; !(v > 0) {
				t.Errorf("dominant layer share = %g, want > 0", v)
			}
		})
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range []string{"path_cold_topk", "cycle_union_topk", "datalog_program", "filter_warm_sweep"} {
		w, ok := findWorkload(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		a, err := w.run(smoke)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.run(smoke)
		if err != nil {
			t.Fatal(err)
		}
		if a.checksum != b.checksum || a.checksum == 0 {
			t.Errorf("%s: oracle checksums %v and %v differ under one seed", name, a.checksum, b.checksum)
		}
		if x, y := a.values["alloc_mb"], b.values["alloc_mb"]; math.Abs(x-y) > 0.001*x {
			t.Errorf("%s: alloc_mb %g vs %g differ by more than 0.1%% under one seed", name, x, y)
		}
		other := smoke
		other.seed = heldOutSeed
		c, err := w.run(other)
		if err != nil {
			t.Fatal(err)
		}
		if c.checksum == a.checksum {
			t.Errorf("%s: seeds %d and %d give the same oracle checksum", name, smoke.seed, other.seed)
		}
	}
}
