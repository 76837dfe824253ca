package chaos

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// Differential determinism (the parallel-engine oracle): the group runner
// with SimWorkers == 1 executes the multi-env topology serially — same
// barriers, same mailbox merge, no worker pool. Runs with 2 and 8 workers
// must reproduce its fingerprint and metrics byte for byte; any scheduling
// leak through the barrier protocol shows up here as drift. SimWorkers == 0
// is the same serial runner as 1 (sim.Group clamps it), so it adds nothing
// here; the parity tests of the paged and sharded scenarios include it.
var differentialWorkers = []int{1, 2, 8}

func diffSeeds(t *testing.T) []int64 {
	n := 20
	if testing.Short() {
		n = 5
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// TestChaosSerialParallelDifferential sweeps seeds through the full chaos
// harness (randomized scheme, shape, and fault plan per seed) under every
// worker count and demands byte-identical fingerprints, metrics snapshots,
// and stats. This is the I5 oracle extended to the parallel engine.
func TestChaosSerialParallelDifferential(t *testing.T) {
	for _, seed := range diffSeeds(t) {
		var base *Result
		for _, w := range differentialWorkers {
			sc := DefaultScenario(seed)
			sc.SimWorkers = w
			r, err := Run(sc)
			if err != nil {
				t.Fatalf("seed %d w=%d: %v", seed, w, err)
			}
			for _, v := range r.Violations {
				t.Errorf("seed %d w=%d violation: %s", seed, w, v)
			}
			if base == nil {
				base = r
				continue
			}
			if r.Fingerprint != base.Fingerprint {
				t.Errorf("seed %d: w=%d fingerprint %016x != w=%d %016x",
					seed, w, r.Fingerprint, differentialWorkers[0], base.Fingerprint)
			}
			if !bytes.Equal(r.Metrics, base.Metrics) {
				t.Errorf("seed %d: w=%d metrics snapshot diverges from w=%d", seed, w, differentialWorkers[0])
			}
			if r.Commits != base.Commits || r.Written != base.Written ||
				r.Destaged != base.Destaged || r.Firings != base.Firings || r.Events != base.Events {
				t.Errorf("seed %d: w=%d stats diverge: %+v vs %+v", seed, w, r, base)
			}
		}
	}
}

// TestFailoverSerialParallelDifferential is the same oracle over the
// promotion path: the primary dies mid-run, the group serializes at the
// takeover barrier, and the whole timeline — detection, election,
// backfill, resume, post-promotion traffic — must still replay bit for
// bit at every worker count (I7 across runners).
func TestFailoverSerialParallelDifferential(t *testing.T) {
	for _, seed := range diffSeeds(t) {
		var base *Result
		for _, w := range differentialWorkers {
			sc := DefaultFailoverScenario(seed)
			sc.SimWorkers = w
			r, err := Run(sc)
			if err != nil {
				t.Fatalf("seed %d w=%d: %v", seed, w, err)
			}
			for _, v := range r.Violations {
				t.Errorf("seed %d w=%d violation: %s", seed, w, v)
			}
			if base == nil {
				base = r
				continue
			}
			if r.Fingerprint != base.Fingerprint {
				t.Errorf("seed %d: w=%d fingerprint %016x != w=%d %016x",
					seed, w, r.Fingerprint, differentialWorkers[0], base.Fingerprint)
			}
			if !bytes.Equal(r.Metrics, base.Metrics) {
				t.Errorf("seed %d: w=%d metrics snapshot diverges from w=%d", seed, w, differentialWorkers[0])
			}
			if r.Promoted != base.Promoted || r.Commits != base.Commits ||
				r.Durable != base.Durable || r.DetectToLive != base.DetectToLive ||
				r.Events != base.Events {
				t.Errorf("seed %d: w=%d timeline diverges: %+v vs %+v", seed, w, r, base)
			}
		}
	}
}

// TestGroupRunsReproduceAcrossRepeats re-runs one group scenario and one
// group failover back to back: beyond worker-count invariance, the same
// (seed, workers) pair must also be stable run over run — the worker pool
// must leave no state behind between scenarios.
func TestGroupRunsReproduceAcrossRepeats(t *testing.T) {
	sc := DefaultScenario(7)
	sc.SimWorkers = 8
	r1, err := Run(sc)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	r2, err := Run(sc)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if r1.Fingerprint != r2.Fingerprint || !bytes.Equal(r1.Metrics, r2.Metrics) {
		t.Fatalf("same (seed, workers) diverged across repeats: %016x vs %016x", r1.Fingerprint, r2.Fingerprint)
	}
}

// TestFailoverGroupReleasesGoroutines kills a primary mid-run under the
// parallel engine and checks that finishing the scenario releases every
// parked process goroutine and the quantum worker pool — the dead member
// still holds parked procs when the run ends, and engine close must free
// them along with the survivors.
func TestFailoverGroupReleasesGoroutines(t *testing.T) {
	before := countGoroutines()
	r, err := Run(Scenario{
		Seed:        11,
		Secondaries: 3,
		Window:      20 * time.Millisecond,
		KillAt:      8 * time.Millisecond,
		SimWorkers:  4,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Promoted == "" {
		t.Fatal("no promotion recorded")
	}
	after := waitGoroutinesBelow(t, before+1)
	if after > before+1 {
		t.Errorf("goroutines leaked across a group failover: %d before, %d after", before, after)
	}
}

func countGoroutines() int {
	runtime.GC()
	return runtime.NumGoroutine()
}

// waitGoroutinesBelow polls until the goroutine count drops to the limit
// (Close returns before the worker goroutines observe the closed channel).
func waitGoroutinesBelow(t *testing.T, limit int) int {
	t.Helper()
	var n int
	for i := 0; i < 100; i++ {
		n = countGoroutines()
		if n <= limit {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// TestNoStrayTouches holds every scenario kind to the determinism
// contract at run time: once bring-up has released the group, no member
// schedules an event or occupies a Link on another member except through
// PostTo and the NTB slot ring. The serial runner counts such touches
// (sim.GroupStats.Stray); a kill run stays inline to the end, so its count
// is zero by construction and the check is that it stays so.
func TestNoStrayTouches(t *testing.T) {
	seeds := []int64{0, 1, 2}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		for _, sc := range []Scenario{
			DefaultScenario(seed),
			DefaultPagedScenario(seed),
			DefaultShardScenario(seed, 0),
			DefaultFailoverScenario(seed),
		} {
			r, err := Run(sc)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if r.Stray != 0 {
				t.Errorf("seed %d (shards=%d paged=%v kill=%v): %d stray touches, want 0",
					seed, sc.Shards, sc.Paged, sc.KillAt > 0, r.Stray)
			}
		}
	}
}
