// Command anyk runs ranked enumeration for the paper's query families over
// generated datasets and prints the top-k results.
//
// Examples:
//
//	anyk -query path4 -data uniform -n 10000 -k 5
//	anyk -query cycle6 -data worstcase -n 500 -k 10 -alg Recursive
//	anyk -query star3 -data twitter -n 2000 -k 3 -order max
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"anyk/internal/core"
	"anyk/internal/datalog"
	"anyk/internal/dataset"
	"anyk/internal/dioid"
	"anyk/internal/engine"
	"anyk/internal/obs"
	"anyk/internal/query"
	"anyk/internal/relation"
)

var (
	queryFlag   = flag.String("query", "path4", "query: path<l>, star<l>, cycle<l>, cartesian<l>, clique<k>")
	datalogFlag = flag.String("datalog", "", "Datalog query overriding -query, e.g. 'Q(*) :- R1(x,y), R2(y,z)'; atoms must reference R1..Rn of the generated dataset")
	programFlag = flag.String("program", "", "path to a multi-rule Datalog program file overriding -query/-datalog; each base predicate binds to one generated relation (R1.. in first-use order)")
	dataFlag    = flag.String("data", "uniform", "dataset: uniform, worstcase, bitcoin, twitter, i1, i2")
	nFlag       = flag.Int("n", 10000, "tuples per relation (uniform/worstcase) or nodes (graphs)")
	kFlag       = flag.Int("k", 10, "number of ranked results to print (0 = all)")
	algFlag     = flag.String("alg", "Take2", "algorithm: Take2, Lazy, Eager, All, Recursive, Batch")
	orderFlag   = flag.String("order", "min", "ranking order: min (ascending sum) or max (descending sum)")
	seedFlag    = flag.Int64("seed", 1, "random seed")
	quietFlag   = flag.Bool("quiet", false, "suppress per-result output (timing only)")
	jsonFlag    = flag.Bool("json", false, "emit one JSON object per row on stdout (summary goes to stderr)")
	parFlag     = flag.Int("parallelism", 0, "workers for the bottom-up pass and the sharded ranked merge (0 = GOMAXPROCS, 1 = serial)")
	traceFlag   = flag.Bool("trace", false, "record and print the phase span tree, delay percentiles, and MEM(k) counters")
)

func main() {
	flag.Parse()
	q, err := query.ParseFamily(*queryFlag)
	if err != nil {
		fatal(err)
	}
	if *datalogFlag != "" {
		q, err = query.Parse(*datalogFlag)
		if err != nil {
			fatal(err)
		}
	}
	var prog *datalog.Program
	if *programFlag != "" {
		src, err := os.ReadFile(*programFlag)
		if err != nil {
			fatal(err)
		}
		if prog, err = datalog.ParseProgram(string(src)); err != nil {
			fatal(fmt.Errorf("%s: %v", *programFlag, err))
		}
	}
	l := len(q.Atoms)
	if prog != nil {
		l = len(prog.BasePredicates())
	}
	alg, err := core.ParseAlgorithm(*algFlag)
	if err != nil {
		fatal(err)
	}
	db, err := dataset.Build(*dataFlag, l, *nFlag, 0, *seedFlag)
	if err != nil {
		fatal(err)
	}
	summary := os.Stdout
	if *jsonFlag {
		summary = os.Stderr // keep stdout pure NDJSON for script pipelines
	}
	var tr *obs.Trace
	if *traceFlag {
		tr = obs.NewTrace()
	}
	var rows []core.Row[float64]
	var it *engine.Iterator[float64]
	var start time.Time
	if prog != nil {
		bindProgram(db, prog)
		fmt.Fprintf(summary, "program %s (%d rules) over %s (n=%d), algorithm %s, order %s\n",
			*programFlag, len(prog.Rules)+1, *dataFlag, *nFlag, alg, *orderFlag)
		start = time.Now()
		rows, it, err = runProgram(db, prog, alg, *orderFlag, *kFlag, tr)
	} else {
		fmt.Fprintf(summary, "%s over %s (n=%d), algorithm %s, order %s\n", q, *dataFlag, *nFlag, alg, *orderFlag)
		start = time.Now()
		rows, it, err = run(db, q, alg, *orderFlag, *kFlag, tr)
	}
	if err != nil {
		fatal(err)
	}
	vars, plan := it.Vars, it.Plan
	elapsed := time.Since(start)
	if plan != nil {
		fmt.Fprintf(summary, "plan: route=%s width=%d trees=%d", plan.Route, plan.Width, plan.Trees)
		if plan.Predicates > 0 {
			fmt.Fprintf(summary, " predicates=%d", plan.Predicates)
		}
		if plan.Shards > 0 {
			fmt.Fprintf(summary, " shards=%d parallelism=%d", plan.Shards, plan.Parallelism)
		}
		fmt.Fprintln(summary)
		for i, b := range plan.Bags {
			fmt.Fprintf(summary, "  bag %d (parent %d): vars=%s cover=%s assigned=%s\n",
				i, b.Parent, strings.Join(b.Vars, ","), strings.Join(b.Cover, " "), strings.Join(b.Assigned, " "))
		}
		for i, st := range plan.Strata {
			kind := "nonrecursive"
			if st.Recursive {
				kind = "recursive"
			}
			fmt.Fprintf(summary, "  stratum %d (%s): preds=%s rules=%d tuples=%d passes=%d\n",
				i, kind, strings.Join(st.Predicates, ","), st.Rules, st.Tuples, st.Iterations)
		}
	}
	switch {
	case *jsonFlag:
		if err := writeJSON(rows, it); err != nil {
			fatal(err)
		}
	case !*quietFlag:
		fmt.Printf("%-6s %-12s %s\n", "rank", "weight", strings.Join(vars, " "))
		for i, r := range rows {
			// Decode dense codes back to logical values (identity for the
			// generated int64 datasets, strings/floats for typed CSV data).
			logical := it.TypedVals(r.Vals)
			vals := make([]string, len(logical))
			for j, v := range logical {
				vals[j] = fmt.Sprint(v)
			}
			fmt.Printf("%-6d %-12.2f %s\n", i+1, r.Weight, strings.Join(vals, " "))
		}
	}
	fmt.Fprintf(summary, "%d results in %v (TTF included)\n", len(rows), elapsed)
	if tr != nil {
		printTrace(summary, tr)
	}
}

// printTrace renders the -trace report: the indented phase span tree, the
// inter-result delay percentiles, and the MEM(k) counters the enumerator
// reported when the stream closed.
func printTrace(w *os.File, tr *obs.Trace) {
	snap := tr.Snapshot()
	fmt.Fprintln(w, "trace:")
	for _, line := range strings.Split(strings.TrimRight(snap.Tree(), "\n"), "\n") {
		fmt.Fprintf(w, "  %s\n", line)
	}
	if d := snap.Delays; d.Count > 0 {
		fmt.Fprintf(w, "delays: n=%d p50=%s p90=%s p99=%s max=%s\n",
			d.Count, secs(d.Quantile(0.5)), secs(d.Quantile(0.9)), secs(d.Quantile(0.99)), secs(d.Max))
	}
	if len(snap.Counters) > 0 {
		names := make([]string, 0, len(snap.Counters))
		for n := range snap.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, n := range names {
			parts[i] = fmt.Sprintf("%s=%d", n, snap.Counters[n])
		}
		fmt.Fprintf(w, "counters: %s\n", strings.Join(parts, " "))
	}
}

func secs(s float64) string { return time.Duration(s * float64(time.Second)).String() }

// jsonRow is the NDJSON row shape of -json: one object per line, logical
// values (numbers or strings, decoded through the dataset's dictionaries)
// keyed by output variable so downstream scripts need no schema knowledge.
type jsonRow struct {
	Rank   int            `json:"rank"`
	Weight float64        `json:"weight"`
	Vals   map[string]any `json:"vals"`
}

func writeJSON(rows []core.Row[float64], it *engine.Iterator[float64]) error {
	bw := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(bw)
	for i, r := range rows {
		logical := it.TypedVals(r.Vals)
		vals := make(map[string]any, len(it.Vars))
		for j, v := range it.Vars {
			vals[v] = logical[j]
		}
		if err := enc.Encode(jsonRow{Rank: i + 1, Weight: r.Weight, Vals: vals}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func orderDioid(order string) (dioid.Dioid[float64], error) {
	switch order {
	case "min":
		return dioid.Tropical{}, nil
	case "max":
		return dioid.MaxPlus{}, nil
	}
	return nil, fmt.Errorf("unknown order %q", order)
}

func run(db *relation.DB, q *query.CQ, alg core.Algorithm, order string, k int, tr *obs.Trace) ([]core.Row[float64], *engine.Iterator[float64], error) {
	d, err := orderDioid(order)
	if err != nil {
		return nil, nil, err
	}
	it, err := engine.Enumerate[float64](db, q, d, alg, engine.Options{Parallelism: *parFlag, Tracer: tr})
	if err != nil {
		return nil, nil, err
	}
	defer it.Close()
	return it.Drain(k), it, nil
}

// bindProgram aliases the program's base predicates onto the generated
// dataset: a predicate whose name matches a dataset relation binds directly,
// the rest bind to R1, R2, ... in first-use order (so `edge` over a uniform
// dataset reads R1). Mixing both styles is fine; running out of generated
// relations is fatal.
func bindProgram(db *relation.DB, p *datalog.Program) {
	next := 1
	for _, pred := range p.BasePredicates() {
		if db.Relation(pred) != nil {
			continue
		}
		r := db.Relation(fmt.Sprintf("R%d", next))
		if r == nil {
			fatal(fmt.Errorf("program base predicate %s: dataset %s has no relation R%d to bind it to", pred, *dataFlag, next))
		}
		next++
		db.Alias(pred, r)
	}
}

func runProgram(db *relation.DB, p *datalog.Program, alg core.Algorithm, order string, k int, tr *obs.Trace) ([]core.Row[float64], *engine.Iterator[float64], error) {
	d, err := orderDioid(order)
	if err != nil {
		return nil, nil, err
	}
	it, err := datalog.Enumerate(db, p, d, alg, engine.Options{Parallelism: *parFlag, Tracer: tr})
	if err != nil {
		return nil, nil, err
	}
	defer it.Close()
	return it.Drain(k), it, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "anyk:", err)
	os.Exit(1)
}
