// Command xbench regenerates the paper's evaluation figures (and the
// repository's ablation studies) from the simulated X-SSD stack.
//
// Usage:
//
//	xbench -list
//	xbench -fig 9            # one figure
//	xbench -exp fig12        # by name
//	xbench -all              # everything
//	xbench -chaos -seeds 20  # chaos sweep: fault plans vs invariants
//	xbench -chaos -shards 4 -seeds 10  # sharded sweep: cluster fault plans vs invariants incl. I8
//	xbench -chaos -paged -seeds 20  # paged sweep: B+tree store + fuzzy checkpoints, invariants incl. I9
//	xbench -failover -seeds 20  # failover sweep: primary kills vs takeover invariants
//
// Add -metrics out.json to any experiment run to also dump a per-cell
// metrics snapshot (canonical JSON, byte-identical across same-seed runs).
//
// Every simulation runs on a sim.Group. -workers N places the devices on
// it: 0 (the default) puts all of a run's devices on one member, N >= 1
// gives each device a member of its own and the group N quantum executors.
// Same-seed results are byte-identical for every N >= 1.
//
// Performance modes (-suite needs -o, the file the results go to):
//
//	xbench -suite perf -o BENCH_PR4.json               # time one cell per figure + a chaos seed + the pargroup twins
//	xbench -suite perf -workers 8 -o BENCH_PR7.json    # the same cells on the parallel engine
//	xbench -suite latency -o BENCH_PR8.json            # virtual-time latency quantiles + serial/parallel twins
//	xbench -suite shard -o BENCH_PR9.json              # sharded-cluster throughput scaling + remote-mix sweep + engine twins
//	xbench -compare baseline.json new.json # gate: fail on >15% events/sec regression or serial/parallel event drift
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"xssd/internal/bench"
	"xssd/internal/chaos"
)

func main() {
	fig := flag.Int("fig", 0, "figure number to regenerate (9-13)")
	exp := flag.String("exp", "", "experiment name (see -list)")
	all := flag.Bool("all", false, "run every experiment")
	list := flag.Bool("list", false, "list experiment names")
	chaosRun := flag.Bool("chaos", false, "run the chaos sweep (randomized fault plans, invariants I1-I5)")
	failoverRun := flag.Bool("failover", false, "run the failover sweep (randomized primary kills, invariants I6-I7)")
	seeds := flag.Int("seeds", 20, "number of seeds for -chaos/-failover")
	shards := flag.Int("shards", 0, "with -chaos: run the sharded-cluster sweep with this many shards per seed (invariants I1-I5 + I8); 0 = classic single-primary sweep")
	paged := flag.Bool("paged", false, "with -chaos: store tables in B+tree pages destaged to the conventional side, with background fuzzy checkpoints (invariants I1-I5 + I9)")
	metricsOut := flag.String("metrics", "", "write per-cell metrics snapshots to this file as JSON")
	workers := flag.Int("workers", 0, "device placement on the simulation group: 0 = every device on one member, n >= 1 = one member per device and n quantum executors (figures, sweeps, and the perf suite)")
	suite := flag.String("suite", "", "run a timed suite (\"perf\", \"latency\", or \"shard\")")
	out := flag.String("o", "", "output file for -suite (required with it)")
	compare := flag.Bool("compare", false, "compare two perf result files: -compare baseline.json new.json")
	tolerance := flag.Float64("tolerance", 0.15, "allowed events/sec regression fraction for -compare")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	gogc := flag.Int("gogc", 400, "GC target percentage (runtime/debug.SetGCPercent); simulations are short-lived and allocation-heavy, so trading heap headroom for fewer GC cycles is the right default here")
	flag.Parse()

	// Results are untouched by this: the engine runs on virtual time, so
	// collector pacing can never leak into event order or metrics.
	debug.SetGCPercent(*gogc)

	bench.SetEngineWorkers(*workers)

	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
		}()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	var capture *bench.Capture
	if *metricsOut != "" {
		capture = bench.StartCapture()
		defer bench.StopCapture()
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: xbench -compare baseline.json new.json")
			os.Exit(2)
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("compare: %s within %.0f%% of %s on every cell\n", flag.Arg(1), *tolerance*100, flag.Arg(0))
	case *suite != "":
		cells := suiteCells(*suite)
		if cells == nil {
			fmt.Fprintf(os.Stderr, "xbench: unknown suite %q (\"perf\", \"latency\", or \"shard\")\n", *suite)
			os.Exit(2)
		}
		// Each suite has its own baseline file; a default would let one
		// suite's cells overwrite another's.
		if *out == "" {
			fmt.Fprintln(os.Stderr, "usage: xbench -suite name -o results.json")
			os.Exit(2)
		}
		if err := runSuite(*suite, cells, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *chaosRun || *failoverRun:
		// One sweep; the flags pick the scenario generator. The axes are
		// not composed yet (chaos.Run rejects the pairs), so a flag set
		// naming two of them is a usage error, not a silent pick of one.
		gen := chaos.DefaultScenario
		switch {
		case *chaosRun && *failoverRun, *failoverRun && (*shards > 0 || *paged), *shards > 0 && *paged:
			fmt.Fprintln(os.Stderr, "xbench: -failover, -chaos -shards N and -chaos -paged select different sweeps; give one")
			os.Exit(2)
		case *failoverRun:
			gen = chaos.DefaultFailoverScenario
		case *shards > 0:
			gen = func(seed int64) chaos.Scenario { return chaos.DefaultShardScenario(seed, *shards) }
		case *paged:
			gen = chaos.DefaultPagedScenario
		}
		if err := chaos.Sweep(os.Stdout, gen, *seeds, *workers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *list:
		for _, name := range bench.Experiments {
			fmt.Println(name)
		}
	case *all:
		for _, name := range bench.Experiments {
			if err := bench.Run(name, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	case *fig != 0:
		if err := bench.Run(fmt.Sprintf("fig%d", *fig), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *exp != "":
		if err := bench.Run(*exp, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if capture != nil {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := capture.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics: wrote %d cell snapshots to %s\n", capture.Len(), *metricsOut)
	}
}

// repeatBelow: cells whose first run finishes faster than this are re-timed
// (best of three). Short cells are dominated by scheduler and timer noise,
// and the compare gate's 15% tolerance assumes the noise is smaller than
// that; best-of-N clips the one-sided slow tail.
const repeatBelow = 2 * time.Second

// shardScalingFloor: the 4-shard cell must commit at least this multiple
// of the 1-shard cell's aggregate — the headline scaling claim of the
// sharded cluster, gated at generation time so a regressing tree cannot
// even produce a BENCH_PR9.json.
const shardScalingFloor = 3.0

// suiteCells lists the cells of a timed suite, or nil for an unknown name.
func suiteCells(suite string) []bench.Cell {
	switch suite {
	case "perf":
		return bench.PerfCells()
	case "latency":
		return bench.LatencyCells()
	case "shard":
		return bench.ShardCells()
	}
	return nil
}

// runSuite times every cell of a suite against the wall clock and writes the
// canonical results file. Timing lives here, not in internal/bench: the
// simulation packages are virtual-time only (the simdeterminism analyzer
// enforces it), while a command may consult real clocks. Events, quantiles
// and commit counts are virtual time — deterministic — so the compare gate
// holds them to exact equality; wall time, events/sec and allocations
// describe the machine and the code.
func runSuite(suite string, cells []bench.Cell, path string) error {
	results := make([]bench.PerfResult, 0, len(cells))
	for _, c := range cells {
		best, err := timeCell(c)
		if err != nil {
			return fmt.Errorf("%s suite: %s: %w", suite, c.Name, err)
		}
		for rep := 1; rep < 3 && best.WallNS < int64(repeatBelow); rep++ {
			again, err := timeCell(c)
			if err != nil {
				return fmt.Errorf("%s suite: %s (rep %d): %w", suite, c.Name, rep, err)
			}
			if again.Events != best.Events {
				return fmt.Errorf("%s suite: %s: event count drifted across repeats: %d vs %d",
					suite, c.Name, again.Events, best.Events)
			}
			if again.WallNS < best.WallNS {
				best = again
			}
		}
		fmt.Printf("%-28s %10.0f events/s  (%d events, %v, %d allocs)",
			best.Bench, best.EventsPerSec, best.Events,
			time.Duration(best.WallNS).Round(time.Millisecond), best.Allocs)
		if best.P50NS != 0 || best.P99NS != 0 || best.P999NS != 0 {
			fmt.Printf("  p50 %v p99 %v p999 %v",
				time.Duration(best.P50NS), time.Duration(best.P99NS), time.Duration(best.P999NS))
		}
		if best.Commits != 0 {
			fmt.Printf("  %d commits", best.Commits)
		}
		if best.NandPages != 0 {
			fmt.Printf("  %d nand pages", best.NandPages)
		}
		if best.PageReads != 0 {
			fmt.Printf("  %d page reads", best.PageReads)
		}
		fmt.Println()
		if strings.HasPrefix(c.Name, "pargroup/") {
			// The hand-off counters depend on the host, so they are printed
			// here and never written to the results file.
			st := bench.LastGroupStats()
			fmt.Printf("%-28s hand-off, last repetition: %d quanta, %d shared, %d member-quanta helped, %d wakes\n",
				"", st.Quanta, st.Shared, st.Helped, st.Wakes)
		}
		results = append(results, best)
	}
	if suite == "shard" {
		if err := bench.CheckShardScaling(results, shardScalingFloor); err != nil {
			return err
		}
	}
	if err := bench.WritePerfFile(path, results); err != nil {
		return err
	}
	fmt.Printf("%s: wrote %d cells to %s\n", suite, len(results), path)
	return nil
}

// timeCell runs one cell once under the wall clock.
func timeCell(c bench.Cell) (bench.PerfResult, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	m, err := c.Run()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return bench.PerfResult{}, err
	}
	r := bench.PerfResult{
		Bench:     c.Name,
		WallNS:    wall.Nanoseconds(),
		Events:    m.Events,
		Allocs:    int64(after.Mallocs - before.Mallocs),
		P50NS:     m.Lat.P50,
		P99NS:     m.Lat.P99,
		P999NS:    m.Lat.P999,
		Commits:   m.Commits,
		NandPages: m.NandPages,
		PageReads: m.PageReads,
	}
	if wall > 0 {
		r.EventsPerSec = float64(m.Events) / wall.Seconds()
	}
	return r, nil
}

// runCompare gates new against baseline with the given tolerance.
func runCompare(baselinePath, newPath string, tol float64) error {
	baseline, err := bench.ReadPerfFile(baselinePath)
	if err != nil {
		return err
	}
	current, err := bench.ReadPerfFile(newPath)
	if err != nil {
		return err
	}
	warnings, err := bench.Compare(baseline, current, tol)
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, "compare: warning:", w)
	}
	return err
}
