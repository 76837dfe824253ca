package chaos

import (
	"testing"

	"xssd/internal/obs"
)

// TestFoldPinned pins the sweep fold's exact formula with synthetic
// inputs: FNV-1a over the (seed, first-run fingerprint) sequence. CI and
// the failover harness compare folds across machines and branches, so a
// silent change to the formula — or to the order the fold visits seeds —
// must fail loudly here, not show up as an unexplained digest drift.
func TestFoldPinned(t *testing.T) {
	rs := []SeedResult{
		{Seed: 0, First: &Result{Fingerprint: 0x1111111111111111}},
		{Seed: 1, First: &Result{Fingerprint: 0x2222222222222222}},
		{Seed: 2, First: &Result{Fingerprint: 0x3333333333333333}},
	}
	if got := Fold(rs); got != 0x2f715322a21d8256 {
		t.Errorf("Fold = %#016x, want 0x2f715322a21d8256 (formula changed?)", got)
	}
	if got := Fold(nil); got != obs.FNVOffset {
		t.Errorf("Fold(nil) = %#016x, want the FNV offset basis", got)
	}
	// A nil First contributes only its seed.
	withHole := []SeedResult{rs[0], {Seed: 1}, rs[2]}
	if got, same := Fold(withHole), Fold(rs); got == same {
		t.Errorf("Fold ignored a missing run: %#016x", got)
	}
}

// TestFoldOrderSensitive: a sweep's identity includes its schedule — the
// same per-seed results folded in a different order must give a different
// digest, or a reordered (e.g. parallelized) sweep could silently pass a
// pinned-fingerprint gate.
func TestFoldOrderSensitive(t *testing.T) {
	rs := []SeedResult{
		{Seed: 0, First: &Result{Fingerprint: 0x1111111111111111}},
		{Seed: 1, First: &Result{Fingerprint: 0x2222222222222222}},
		{Seed: 2, First: &Result{Fingerprint: 0x3333333333333333}},
	}
	rev := []SeedResult{rs[2], rs[1], rs[0]}
	fwd, bwd := Fold(rs), Fold(rev)
	if fwd == bwd {
		t.Fatalf("Fold is order-insensitive: both orders give %#016x", fwd)
	}
	if bwd != 0x2644cb0d7c8750d6 {
		t.Errorf("reversed Fold = %#016x, want 0x2644cb0d7c8750d6", bwd)
	}
}

// TestSweepFailoverResultsPair runs a tiny failover sweep and checks the
// exported per-seed results carry both runs with identical fingerprints.
func TestSweepFailoverResultsPair(t *testing.T) {
	if testing.Short() {
		t.Skip("full failover sweep pair in -short mode")
	}
	rs, err := SweepResults(DefaultFailoverScenario, 2, 0)
	if err != nil {
		t.Fatalf("SweepResults: %v", err)
	}
	if len(rs) != 2 {
		t.Fatalf("got %d seed results, want 2", len(rs))
	}
	for _, sr := range rs {
		for _, v := range sr.Violations {
			t.Errorf("seed %d: violation: %s", sr.Seed, v)
		}
		if sr.First == nil || sr.Second == nil {
			t.Fatalf("seed %d: missing a run", sr.Seed)
		}
		if sr.First.Fingerprint != sr.Second.Fingerprint {
			t.Errorf("seed %d: pair fingerprints differ", sr.Seed)
		}
	}
	if got := Fold(rs); got != 0x6ed4cee40e2eef7b {
		t.Errorf("failover 2-seed fold = %016x, want 6ed4cee40e2eef7b (a kill run's event history changed)", got)
	}
}
