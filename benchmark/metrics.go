package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

// metricDef is one metric of BENCHMARK.json. The tables below are the single
// definition the harness emits from; a test asserts BENCHMARK.json lists
// exactly these names, units, directions and bounds.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd metrics are measured with tracing off and reported by every
// workload (the per-workload meaning of "op", "k" and "resident state" is in
// README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ttf_ms", "ms", "lower", 0.25},
	{"ttk_ms", "ms", "lower", 0.25},
	{"results_per_s", "1/s", "higher", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"allocs_per_result", "count", "lower", 0.04},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// perLayer metrics come from the traced run. A metric reads 0 on a workload
// whose op never enters that layer.
var perLayer = []metricDef{
	// End-to-end quantities only some workloads have; every end_to_end
	// metric must be reported by every workload, so these are recorded here.
	{"ttl_s", "s", "lower", 0},
	{"ttf_scaling_exp", "exp", "lower", 0},
	{"heap_growth_mb", "MB", "lower", 0},
	{"session_p50_ms", "ms", "lower", 0},
	{"session_p99_ms", "ms", "lower", 0},
	{"sessions_per_s", "1/s", "higher", 0},
	{"failed_share", "ratio", "lower", 0},

	{"relation.ingest_rows_per_s", "1/s", "higher", 0},
	{"relation.group_index_ms", "ms", "lower", 0},
	{"relation.sorted_perm_ms", "ms", "lower", 0},
	{"relation.filter_scan_us", "us", "lower", 0},
	{"relation.memo_entries", "count", "lower", 0},
	{"relation.resident_mb", "MB", "lower", 0},

	{"query.parse_us", "us", "lower", 0},
	{"query.plan_us", "us", "lower", 0},

	{"datalog.parse_us", "us", "lower", 0},
	{"datalog.stratify_us", "us", "lower", 0},
	{"datalog.materialize_ms", "ms", "lower", 0},
	{"datalog.derived_tuples", "count", "lower", 0},
	{"datalog.fixpoint_ms", "ms", "lower", 0},
	{"datalog.fixpoint_allocs_per_tuple", "count", "lower", 0},

	{"decomp.decompose_ms", "ms", "lower", 0},
	{"decomp.trees", "count", "lower", 0},
	{"decomp.stage_rows", "count", "lower", 0},

	{"hypertree.plan_us", "us", "lower", 0},
	{"hypertree.materialize_ms", "ms", "lower", 0},
	{"hypertree.bag_rows", "count", "lower", 0},
	{"hypertree.width", "count", "lower", 0},

	{"join.generic_join_ms", "ms", "lower", 0},
	{"join.batch_sort_s", "s", "lower", 0},

	{"engine.compile_ms", "ms", "lower", 0},
	{"engine.build_ms", "ms", "lower", 0},
	{"engine.merge_ms", "ms", "lower", 0},
	{"engine.first_next_ms", "ms", "lower", 0},
	{"engine.lowering_ms", "ms", "lower", 0},
	{"engine.warm_ttf_us", "us", "lower", 0},
	{"engine.cache_hit_ratio", "ratio", "higher", 0},
	{"engine.cache_entries", "count", "lower", 0},
	{"engine.typed_decode_ns_per_row", "ns", "lower", 0},
	{"engine.drain_rows_per_s", "1/s", "higher", 0},

	{"dpgraph.build_ms", "ms", "lower", 0},
	{"dpgraph.bottomup_ms", "ms", "lower", 0},
	{"dpgraph.states", "count", "lower", 0},
	{"dpgraph.bytes_per_state", "B", "lower", 0},
	{"dpgraph.alive_ratio", "ratio", "higher", 0},
	{"dpgraph.assemble_ns_per_row", "ns", "lower", 0},

	{"core.init_us", "us", "lower", 0},
	{"core.next_ns", "ns", "lower", 0},
	{"core.block_delay_p50_ns", "ns", "lower", 0},
	{"core.block_delay_p99_ns", "ns", "lower", 0},
	{"core.candidates_per_result", "count", "lower", 0},
	{"core.max_queue", "count", "lower", 0},
	{"core.union_next_ns", "ns", "lower", 0},
	{"core.batch_ttf_s", "s", "lower", 0},

	{"server.create_ms_p50", "ms", "lower", 0},
	{"server.next_page_ms_p50", "ms", "lower", 0},
	{"server.delete_ms_p50", "ms", "lower", 0},
	{"server.encode_us_per_row", "us", "lower", 0},
	{"server.http_rows_per_s", "1/s", "higher", 0},
	{"server.rejected", "count", "lower", 0},
	{"server.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"server.sessions_live_max", "count", "lower", 0},

	{"obs.trace_overhead_pct", "%", "lower", 0},
	{"bench.span_overhead_pct", "%", "lower", 0},
	{"bench.gen_late_ms_p99", "ms", "lower", 0},
	{"bench.lower_ms", "ms", "lower", 0},
	{"bench.pipeline_ttf_ms", "ms", "lower", 0},
	{"bench.engine_ttf_ms", "ms", "lower", 0},
	{"bench.dominant_layer_share", "ratio", "higher", 0},

	{"ratio.anyk_ttl_over_batch", "ratio", "lower", 0},
	{"ratio.warm_over_cold_ttf", "ratio", "lower", 0},
	{"ratio.pushdown_over_unfiltered_ttf", "ratio", "lower", 0},
}

// result is what one run of one workload produced.
type result struct {
	attempted, failed int
	values            map[string]float64
	// samples is the number of raw samples behind a metric (reps, queries or
	// sessions); notes qualify a metric (which percentile a tail used).
	samples map[string]int
	notes   map[string]string
	spans   []span
	// checksum is the oracle's weight checksum: equal seeds give equal inputs
	// and therefore equal checksums.
	checksum float64
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}, notes: map[string]string{}}
}

func (r *result) set(name string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
	if samples > 0 {
		r.samples[name] = samples
	}
}

// op counts one checked operation.
func (r *result) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// wire renders the result as the one-line JSON object the driver reads: every
// metric of defs, by name, with its unit.
func (r *result) wire(defs []metricDef) ([]byte, error) {
	w := wireResult{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]wireMetric, len(defs))}
	for _, d := range defs {
		w.Metrics[d.Name] = wireMetric{Value: r.values[d.Name], Unit: d.Unit}
	}
	return json.Marshal(w)
}

// print lists every metric of defs with unit and sample count; hideZero
// leaves out the per-layer metrics the workload does not touch.
func (r *result) print(w io.Writer, workload string, defs []metricDef, hideZero bool) {
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if hideZero && (!ok || v == 0) {
			continue
		}
		line := fmt.Sprintf("  %-20s %-36s %16.6g %-6s", workload, d.Name, v, d.Unit)
		if n := r.samples[d.Name]; n > 0 {
			line += fmt.Sprintf(" n=%d", n)
		}
		if note := r.notes[d.Name]; note != "" {
			line += " (" + note + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  %-20s attempted=%d failed=%d\n", workload, r.attempted, r.failed)
}

// envInfo is the environment header printed with every run and stored in the
// trace file.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOGC       string  `json:"gogc"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
}

func environment(cfg config) envInfo {
	e := envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOGC: os.Getenv("GOGC"), Commit: "unknown", Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds}
	if e.GOGC == "" {
		e.GOGC = "100 (default)"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func (e envInfo) String() string {
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d go=%s GOGC=%s commit=%s seed=%d scale=%g seconds=%g",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.GOGC, e.Commit, e.Seed, e.Scale, e.Seconds)
}
