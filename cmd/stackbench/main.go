// Command stackbench is the repository's benchmark: five workloads over
// the simulated X-SSD stack, each built from the exported constructors and
// measured from outside — end to end on both clocks (virtual time = the
// modelled device, wall clock = the simulator), and layer by layer from
// the always-on obs registry, typed Stats() and a CPU profile.
//
// Usage:
//
//	go run ./cmd/stackbench                       # every workload, human-readable
//	go run ./cmd/stackbench -workload tpcc_local  # one workload; last line is one JSON object
//	go run ./cmd/stackbench -trace 1              # per-layer metrics from a traced repetition
//	go run ./cmd/stackbench -selfcheck            # run each workload twice, compare within bounds
//	go run ./cmd/stackbench -spec                 # print BENCHMARK.json
//
// See README.md in this directory for the workloads and the metric
// glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

var workloads = []workload{
	{
		name: "tpcc_local", loop: "closed, 8 clients",
		why:    "Fig 9 headline: TPC-C on the row-map engine, pipelined group commit to one Villars-SRAM device; working set in memory, NAND sees only the sequential destage ring",
		warmup: 10 * time.Millisecond, window: 90 * time.Millisecond, settle: 15 * time.Millisecond,
		build: buildTPCCLocal,
	},
	{
		name: "tpcc_repl", loop: "closed, 8 clients",
		why:    "replication half (Fig 13): same host side, primary + 2 eager secondaries over NTB on their own group members; ack waits on the slowest shadow counter",
		warmup: 10 * time.Millisecond, window: 40 * time.Millisecond, settle: 15 * time.Millisecond,
		build: buildTPCCRepl,
	},
	{
		name: "tpcc_paged", loop: "closed, 4 clients",
		why:    "only workload larger than the program's cache: paged B+tree engine, pool 1/4 of the tree, 2 ms fuzzy checkpoints contending with log destage on a NAND array small enough to force GC",
		warmup: 10 * time.Millisecond, window: 8000 * time.Millisecond, settle: 15 * time.Millisecond,
		build: buildTPCCPaged,
	},
	{
		name: "tpcc_shard4", loop: "closed, 8 clients",
		why:    "cluster: 4 shards x 2 warehouses on their own group members, spec remote mix; cross-shard commits run presumed-abort 2PC over the RPC conduit and wait on the slowest participant's log",
		warmup: 10 * time.Millisecond, window: 2000 * time.Millisecond, settle: 15 * time.Millisecond,
		build: buildTPCCShard,
	},
	{
		name: "dev_mixed", loop: "open 20 % of program bandwidth + closed QD 8",
		why:    "no database: open-loop 8 KB appends, a tail reader and QD-8 conventional reads/writes share one small device, so reads sit beside writes and random overwrites beside the wrapping ring while GC runs",
		warmup: 100 * time.Millisecond, window: 1400 * time.Millisecond, settle: 15 * time.Millisecond,
		build: buildDevMixed,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so the test can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stackbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all); the last line of output is then one JSON object")
	seed := fs.Int64("seed", 42, "seed for every generated input (Env seeds, TPC-C load, clients); 1437 is held out — do not tune on it")
	seconds := fs.Float64("seconds", runSeconds, "nominal measured wall seconds of a run; virtual windows scale by seconds/10")
	reps := fs.Int("reps", 3, "fresh repetitions per run; host metrics are their median")
	trace := fs.Int("trace", 0, "1: add one traced repetition (CPU profile + spans) and report the per-layer metrics")
	selfcheck := fs.Bool("selfcheck", false, "run each selected workload twice and report, per end-to-end metric, whether both runs agree within its bound")
	spec := fs.Bool("spec", false, "print BENCHMARK.json, generated from the metric tables, and exit")
	out := fs.String("o", "", "also write every metric of every run to this file as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		fmt.Fprintf(stdout, "%s", benchmarkSpec())
		return 0
	}
	if *seconds <= 0 || *reps < 1 {
		fmt.Fprintln(stderr, "stackbench: -seconds and -reps must be positive")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "stackbench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	// Load sizing, printed below: simulated terminals are sim processes,
	// not OS threads, so two host threads are all any workload can use.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	const gogc = 400 // xbench's default: short-lived, allocation-heavy runs
	debug.SetGCPercent(gogc)

	cfg := config{seed: *seed, scale: *seconds / runSeconds, workers: groupWorkers, outDir: traceDir}
	fmt.Fprintf(stdout, "stackbench: seed %d, %d repetitions, window scale %.3g, GOMAXPROCS %d, sim.Group workers %d, GOGC %d\n",
		cfg.seed, *reps, cfg.scale, procs, cfg.workers, gogc)
	fmt.Fprintln(stdout, "stackbench: model unvalidated against hardware (the repository holds no reference measurements)")

	passes := 1
	if *selfcheck {
		passes = 2
	}
	results := make([][]*runResult, passes)
	ok := true
	// Under -selfcheck the two runs of a workload are back to back, so the
	// host's drift over the minute a whole set takes is not held against it.
	for _, w := range selected {
		for pass := 0; pass < passes; pass++ {
			r, err := runWorkload(w, cfg, *reps, *trace == 1)
			if err != nil {
				fmt.Fprintf(stderr, "stackbench: %v\n", err)
				return 1
			}
			results[pass] = append(results[pass], r)
			printRun(stdout, w, r)
			if len(r.problems) > 0 {
				ok = false
			}
		}
	}
	if *selfcheck && !printSelfcheck(stdout, results[0], results[1]) {
		ok = false
	}
	if *out != "" {
		if err := writeResults(*out, results); err != nil {
			fmt.Fprintf(stderr, "stackbench: %v\n", err)
			return 1
		}
	}
	if *name != "" {
		printDriverLine(stdout, results[passes-1][0], *trace == 1)
	}
	if !ok {
		return 1
	}
	return 0
}

// printRun prints every metric of one run by name, with unit and clock.
func printRun(w io.Writer, wl workload, r *runResult) {
	fmt.Fprintf(w, "\n== %s (%s) ==\n", wl.name, wl.loop)
	fmt.Fprintf(w, "  sizes: %s\n", r.sizes)
	fmt.Fprintf(w, "  failed_frac %d/%d operations\n", r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
	for _, def := range endToEnd {
		fmt.Fprintf(w, "  %-34s %14.6g %-10s [%s]\n", def.name, r.endToEnd[def.name], def.unit, def.clock)
	}
	if r.perLayer == nil {
		return
	}
	for _, def := range perLayer {
		fmt.Fprintf(w, "  %-34s %14.6g %-10s [%s]\n", def.name, r.perLayer[def.name], def.unit, def.clock)
	}
}

// printSelfcheck compares two runs of the same code, metric by metric:
// virtual metrics must be identical, host metrics within their bound.
func printSelfcheck(w io.Writer, a, b []*runResult) bool {
	ok := true
	fmt.Fprintf(w, "\n== selfcheck: two runs of the same code ==\n")
	fmt.Fprintf(w, "%-12s %-26s %14s %14s %9s  %s\n", "workload", "metric", "first", "second", "diff", "verdict")
	for i := range a {
		for _, def := range endToEnd {
			x, y := a[i].endToEnd[def.name], b[i].endToEnd[def.name]
			diff := 0.0
			if x != y {
				diff = (y - x) / x
			}
			verdict := "agree"
			switch {
			case def.clock == "virtual" && x != y:
				verdict, ok = "DIFFER (virtual metrics must be identical)", false
			case def.clock == "host" && (diff > def.bound || diff < -def.bound):
				verdict, ok = fmt.Sprintf("DIFFER (bound %.0f%%)", def.bound*100), false
			}
			fmt.Fprintf(w, "%-12s %-26s %14.6g %14.6g %+8.2f%%  %s\n", a[i].workload, def.name, x, y, diff*100, verdict)
		}
	}
	return ok
}

// printDriverLine prints the result object the acceptance driver reads.
func printDriverLine(w io.Writer, r *runResult, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	set, defs := r.endToEnd, endToEnd
	if traced {
		set, defs = r.perLayer, perLayer
	}
	vals := map[string]value{}
	for _, def := range defs {
		vals[def.name] = value{set[def.name], def.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, vals})
	if err != nil {
		panic(fmt.Sprintf("stackbench: result encode: %v", err)) // finite numbers and strings cannot fail
	}
	fmt.Fprintf(w, "%s\n", line)
}

// writeResults stores every pass's metrics as JSON.
func writeResults(path string, passes [][]*runResult) error {
	type run struct {
		Workload  string  `json:"workload"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		EndToEnd  metrics `json:"end_to_end"`
		PerLayer  metrics `json:"per_layer,omitempty"`
	}
	var doc [][]run
	for _, p := range passes {
		var rs []run
		for _, r := range p {
			rs = append(rs, run{r.workload, r.attempted, r.failed, r.endToEnd, r.perLayer})
		}
		doc = append(doc, rs)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	return nil
}
