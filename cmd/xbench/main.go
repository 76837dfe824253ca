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
// Every simulation runs on a sim.Group with each device on a member of its
// own. -workers N (default 1, the serial runner) is how many quantum
// executors run the members; same-seed results are byte-identical for
// every N.
//
// Performance modes (-suite needs -o, the file the results go to):
//
//	xbench -suite -o new.json               # time every cell: perf, latency quantiles, shard scaling
//	xbench -compare BENCH.json new.json     # gate: fail on virtual-time drift, >5% alloc growth or >15% events/sec regression
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
	workers := flag.Int("workers", 1, "quantum executors running the simulation group (>= 1; figures, sweeps, and the timed suite); results do not depend on it")
	suite := flag.Bool("suite", false, "run the timed suite (needs -o)")
	out := flag.String("o", "", "output file for -suite (required with it)")
	compare := flag.Bool("compare", false, "compare two suite result files: -compare baseline.json new.json")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	gogc := flag.Int("gogc", 400, "GC target percentage (runtime/debug.SetGCPercent); simulations are short-lived and allocation-heavy, so trading heap headroom for fewer GC cycles is the right default here")
	flag.Parse()

	// Results are untouched by this: the engine runs on virtual time, so
	// collector pacing can never leak into event order or metrics.
	debug.SetGCPercent(*gogc)

	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "xbench: -workers must be at least 1, got %d\n", *workers)
		os.Exit(2)
	}
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
		if err := runCompare(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("compare: %s passes against %s on every cell\n", flag.Arg(1), flag.Arg(0))
	case *suite:
		// No default output: a bare -suite must not overwrite BENCH.json.
		if *out == "" || flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: xbench -suite -o results.json")
			os.Exit(2)
		}
		if err := runSuite(*out); err != nil {
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
// that; best-of-N clips the one-sided slow tail (keepBest).
const repeatBelow = 2 * time.Second

// runSuite times every cell of the suite against the wall clock and writes
// the canonical results file. Timing lives here, not in internal/bench: the
// simulation packages are virtual-time only (the simdeterminism analyzer
// enforces it), while a command may consult real clocks. Events, quantiles
// and commit counts are virtual time — deterministic — so the compare gate
// and every repetition hold them to exact equality; wall time, events/sec
// and allocations describe the machine and the code.
func runSuite(path string) error {
	cells := bench.SuiteCells()
	results := make([]bench.PerfResult, 0, len(cells))
	for _, c := range cells {
		best, err := timeCell(c)
		if err != nil {
			return fmt.Errorf("suite: %s: %w", c.Name, err)
		}
		for rep := 1; rep < 3 && best.WallNS < int64(repeatBelow); rep++ {
			again, err := timeCell(c)
			if err != nil {
				return fmt.Errorf("suite: %s (rep %d): %w", c.Name, rep, err)
			}
			if drift := bench.VirtualDrift(best, again); len(drift) > 0 {
				return fmt.Errorf("suite: %s (rep %d) did not repeat its first run:\n  %s",
					c.Name, rep, strings.Join(drift, "\n  "))
			}
			best = keepBest(best, again)
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
	if err := bench.CheckShardScaling(results); err != nil {
		return err
	}
	if err := bench.WritePerfFile(path, results); err != nil {
		return err
	}
	fmt.Printf("suite: wrote %d cells to %s\n", len(results), path)
	return nil
}

// keepBest folds a repetition of a cell into the reading kept so far: the
// wall-clock figures of the faster run, and the fewest allocations either
// made. The first run of a cell in the process can include one-time
// warm-up allocations, so the fastest run's own count may not be the
// cell's. A cell that runs once keeps its one reading.
func keepBest(best, again bench.PerfResult) bench.PerfResult {
	allocs := min(best.Allocs, again.Allocs)
	if again.WallNS < best.WallNS {
		best = again
	}
	best.Allocs = allocs
	return best
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

// runCompare gates new against baseline.
func runCompare(baselinePath, newPath string) error {
	baseline, err := bench.ReadPerfFile(baselinePath)
	if err != nil {
		return err
	}
	current, err := bench.ReadPerfFile(newPath)
	if err != nil {
		return err
	}
	warnings, err := bench.Compare(baseline, current)
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, "compare: warning:", w)
	}
	return err
}
