package chaos

import (
	"bytes"
	"fmt"
	"io"

	"xssd/internal/obs"
)

// SeedResult pairs the two runs of one seed in a sweep, with the
// cross-run I5 violations merged into the first run's own.
type SeedResult struct {
	// Seed is the swept seed.
	Seed int64
	// Scenario is what both runs executed.
	Scenario Scenario
	// First and Second are the paired runs of the identical scenario.
	First, Second *Result
	// Violations merges First's invariant breaches with the I5 pair checks.
	Violations []string
}

// SweepResults runs gen(seed) for seeds 0..seeds-1, each twice — every
// in-run invariant inside each run and bitwise reproducibility (I5; I7 on
// kill runs) across the pair — and returns the per-seed outcomes for
// callers that post-process them (the CLI prints them; tests pin the
// sweep's Fold). gen is one of the Default*Scenario generators or a
// closure over one. simWorkers is copied into every scenario
// (Scenario.SimWorkers, the number of quantum executors); both runs of a
// pair use the same count — equivalence across worker counts is the
// differential suite's job.
func SweepResults(gen func(seed int64) Scenario, seeds, simWorkers int) ([]SeedResult, error) {
	out := make([]SeedResult, 0, seeds)
	for seed := int64(0); seed < int64(seeds); seed++ {
		sc := gen(seed)
		sc.SimWorkers = simWorkers
		r1, err := Run(sc)
		if err != nil {
			return nil, err
		}
		r2, err := Run(sc)
		if err != nil {
			return nil, err
		}
		rerun := "I5"
		if sc.KillAt > 0 {
			rerun = "I7"
		}
		sr := SeedResult{Seed: seed, Scenario: sc, First: r1, Second: r2}
		sr.Violations = append(sr.Violations, r1.Violations...)
		if r2.Fingerprint != r1.Fingerprint {
			sr.Violations = append(sr.Violations, fmt.Sprintf("%s: re-run fingerprint %016x != %016x", rerun, r2.Fingerprint, r1.Fingerprint))
		}
		if !bytes.Equal(r1.Metrics, r2.Metrics) {
			sr.Violations = append(sr.Violations, rerun+": re-run metrics snapshots differ")
		}
		out = append(out, sr)
	}
	return out, nil
}

// Fold digests a sweep into one fingerprint: FNV-1a over the
// (seed, run-fingerprint) sequence. The fold is order-sensitive by
// design — a sweep's identity includes its schedule, so the same results
// visited in a different order produce a different digest.
func Fold(results []SeedResult) uint64 {
	h := obs.FNVOffset
	for _, r := range results {
		h = obs.Mix64(h, uint64(r.Seed))
		if r.First != nil {
			h = obs.Mix64(h, r.First.Fingerprint)
		}
	}
	return h
}

// Sweep runs SweepResults and writes one summary line per seed — its
// columns follow the scenario's axes — plus the final fold: the CLI gate
// behind `xbench -chaos` and `xbench -failover`. It returns an error
// counting the violations, or nil when all seeds hold.
func Sweep(w io.Writer, gen func(seed int64) Scenario, seeds, simWorkers int) error {
	results, err := SweepResults(gen, seeds, simWorkers)
	if err != nil {
		return err
	}
	total := 0
	for _, sr := range results {
		sc, r := sr.Scenario, sr.First
		scheme := "-"
		if r.Secondaries > 0 {
			scheme = r.Scheme.String()
		}
		fmt.Fprintf(w, "seed %3d  sec=%d scheme=%-5s ", sr.Seed, r.Secondaries, scheme)
		if sc.KillAt > 0 {
			fmt.Fprintf(w, "kill@%-8v promoted=%-3s resume=%-7d replay=%-5d backfill=%-5d commits=%-5d", sc.KillAt, r.Promoted, r.ResumeAt, r.Replayed, r.Backfilled, r.Commits)
		} else {
			fmt.Fprintf(w, "crash=%-5v commits=%-5d ", r.PowerLost, r.Commits)
			if sc.Paged {
				fmt.Fprintf(w, "ckpts=%-3d aborts=%-3d ", r.Checkpoints, r.CkptAborted)
			}
			fmt.Fprintf(w, "written=%-7d destaged=%-7d faults=%-2d", r.Written, r.Destaged, r.Firings)
		}
		fmt.Fprintf(w, " fp=%016x\n", r.Fingerprint)
		for _, v := range sr.Violations {
			fmt.Fprintf(w, "          VIOLATION %s\n", v)
		}
		total += len(sr.Violations)
	}
	if total > 0 {
		return fmt.Errorf("chaos: %d invariant violations across %d seeds", total, seeds)
	}
	fmt.Fprintf(w, "chaos: %d seeds × 2 runs, invariants %s hold, fold %016x\n", seeds, gen(0).invariants(), Fold(results))
	return nil
}
