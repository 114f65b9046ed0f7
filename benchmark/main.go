// Command benchmark is the repository's performance benchmark: eight named
// workloads, the end-to-end metrics of BENCHMARK.json measured with tracing
// off, and a separate traced run that attributes time to layers. See
// README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Seeds: defaultSeed is what every published number uses; a claimed gain must
// also hold on heldOutSeed, which is not used while a change is written.
const (
	defaultSeed = 42
	heldOutSeed = 7
)

func main() {
	var (
		name        = flag.String("workload", "", "run one workload and print its result as one JSON object on the last line (default: all eight, untraced then traced)")
		seed        = flag.Int64("seed", defaultSeed, fmt.Sprintf("seed of every generated dataset and constant sweep (held-out seed: %d)", heldOutSeed))
		seconds     = flag.Float64("seconds", 8, "measuring window of one run of one workload")
		traced      = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics with tracing off, 1 is the traced run printing the per-layer metrics")
		scale       = flag.Float64("scale", 1, "multiply every dataset size")
		traceOut    = flag.String("trace-out", "", "where the traced run writes its spans as JSON (default <benchmark dir>/out/trace-<workload>.json)")
		checkRepeat = flag.Bool("check-repeat", false, fmt.Sprintf("run the untraced set %d times, two sides alternating, and compare the sides' medians of every (workload, metric) pair against its bound; exit 1 if any differs by more", 2*checkRounds))
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, scale: *scale}
	var err error
	switch {
	case *name != "":
		err = runOne(os.Stdout, cfg, *name, *traced != 0, *traceOut)
	case *checkRepeat:
		err = checkRepeatRuns(os.Stdout, cfg)
	default:
		err = runAll(os.Stdout, cfg, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the driver's entry: one workload, one mode, result as the last
// line of standard output.
func runOne(out io.Writer, cfg config, name string, traced bool, traceOut string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	env := environment(cfg)
	fmt.Fprintln(out, env)
	defs, run := w.mode(traced)
	res, err := run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	res.print(out, name, defs, traced)
	if traced {
		if err := writeTrace(tracePath(traceOut, name), traceFile{Env: env, Workload: name, Spans: res.spans}); err != nil {
			return err
		}
	}
	line, err := res.wire(defs)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// tracePath resolves -trace-out. The default sits in out/ next to the
// benchmark's sources, whether the program was started from the repository
// root or from its own directory.
func tracePath(flagValue, workload string) string {
	if flagValue != "" {
		return flagValue
	}
	dir := "out"
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		dir = filepath.Join("benchmark", "out")
	}
	return filepath.Join(dir, "trace-"+workload+".json")
}

// runSet runs every workload in one mode and returns the results by name.
func runSet(out io.Writer, cfg config, traced bool) (map[string]*result, error) {
	results := map[string]*result{}
	for _, w := range workloads() {
		defs, run := w.mode(traced)
		began := time.Now()
		res, err := run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.print(out, w.name, defs, traced)
		fmt.Fprintf(out, "  %-20s took %.1fs\n", w.name, time.Since(began).Seconds())
		results[w.name] = res
	}
	return results, nil
}

// runAll is the human-readable full run: every end-to-end metric of every
// workload, then the traced run's per-layer metrics.
func runAll(out io.Writer, cfg config, traceOut string) error {
	env := environment(cfg)
	fmt.Fprintln(out, env)
	fmt.Fprintln(out, "== end to end (tracing off) ==")
	untraced, err := runSet(out, cfg, false)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== per layer (traced run) ==")
	tracedSet, err := runSet(out, cfg, true)
	if err != nil {
		return err
	}
	failed := 0
	for name, res := range tracedSet {
		if err := writeTrace(tracePath(traceOut, name), traceFile{Env: env, Workload: name, Spans: res.spans}); err != nil {
			return err
		}
		failed += res.failed + untraced[name].failed
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed the oracle check", failed)
	}
	return nil
}

// checkRounds is how many runs each side of the repeat check takes its median
// over. On shared cores one run in five or so comes out 20–40 % slow as a
// whole; a single pair of runs would then call a metric unresolved that three
// pairs resolve.
const checkRounds = 3

// checkRepeatRuns runs the untraced set 2·checkRounds times, the two sides
// alternating, and reports, per (workload, metric), both sides' medians, how
// much worse the second is, and the bound. A pair that differs by more than
// its bound cannot resolve a change of that size: the metric is "unresolved",
// not "unchanged".
func checkRepeatRuns(out io.Writer, cfg config) error {
	fmt.Fprintln(out, environment(cfg))
	var sides [2][]map[string]*result
	failed := map[string]int{}
	for round := 0; round < checkRounds; round++ {
		for side := range sides {
			set, err := runSet(io.Discard, cfg, false)
			if err != nil {
				return err
			}
			for name, res := range set {
				failed[name] += res.failed
			}
			sides[side] = append(sides[side], set)
			fmt.Fprintf(os.Stderr, "check-repeat: round %d of %d, side %d done\n", round+1, checkRounds, side+1)
		}
	}
	med := func(side int, workload, metric string) float64 {
		var xs []float64
		for _, set := range sides[side] {
			xs = append(xs, set[workload].values[metric])
		}
		return median(xs)
	}
	over := 0
	fmt.Fprintf(out, "%-20s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range workloads() {
		for _, d := range endToEnd {
			a, b := med(0, w.name, d.Name), med(1, w.name, d.Name)
			worse := worseBy(d, a, b)
			flag := ""
			if worse > d.Bound {
				flag = "  OVER"
				over++
			}
			fmt.Fprintf(out, "%-20s %-20s %14.6g %14.6g %8.1f%% %6.0f%%%s\n", w.name, d.Name, a, b, 100*worse, 100*d.Bound, flag)
		}
		if failed[w.name] > 0 {
			fmt.Fprintf(out, "%-20s %d ops failed the oracle check\n", w.name, failed[w.name])
			over++
		}
	}
	if over > 0 {
		return fmt.Errorf("%d (workload, metric) pairs differ by more than their bound", over)
	}
	return nil
}

// worseBy is how much worse b is than a as a share of a, in the metric's own
// direction (negative: b is better).
func worseBy(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}
