package chaos

import (
	"bytes"
	"strings"
	"testing"

	"xssd/internal/fault"
)

// TestPagedSweepHoldsInvariants drives randomized paged scenarios — the
// B+tree table store destaged to the conventional side with background
// fuzzy checkpoints — through the full battery (I1-I5 plus the live I9
// recovery check against the device's own page slots). A seed whose plan
// faults neither the NAND nor the device's power must abort no checkpoint:
// nothing it injects reaches a page write, so an abort there is the page
// store failing on its own.
func TestPagedSweepHoldsInvariants(t *testing.T) {
	seeds, want := 8, uint64(0xd6d6ade0efa66570)
	if testing.Short() {
		seeds, want = 4, 0xaa823b45ebfd0cce
	}
	results, err := SweepResults(DefaultPagedScenario, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := Fold(results); got != want {
		t.Errorf("paged %d-seed fold = %016x, want %016x (a paged run's event history changed)", seeds, got, want)
	}
	crashes, ckpts := 0, 0
	var fetched int64
	for _, sr := range results {
		fetched += sr.First.Fetched
		if len(sr.Violations) > 0 {
			t.Errorf("seed %d: %v", sr.Seed, sr.Violations)
		}
		if sr.First.Commits == 0 {
			t.Errorf("seed %d: no transactions committed", sr.Seed)
		}
		if sr.First.PowerLost {
			crashes++
		}
		if sr.First.Checkpoints > 0 {
			ckpts++
		}
		if n := sr.First.CkptAborted; n > 0 && !faultsPageWrites(sr.Scenario.Plan) {
			t.Errorf("seed %d: %d checkpoints aborted under a plan that faults neither the NAND nor the power:\n%s", sr.Seed, n, sr.Scenario.Plan.Encode())
		}
	}
	if ckpts == 0 {
		t.Errorf("no seed completed a fuzzy checkpoint — I9's tail bound never exercised")
	}
	if fetched == 0 {
		t.Errorf("no seed's Tx.Fetch read a cold page — the batched read path never met the faults")
	}
	t.Logf("%d/%d seeds crashed, %d/%d completed checkpoints, %d pages read by Tx.Fetch", crashes, len(results), ckpts, len(results), fetched)
}

// TestPagedWorkerCountParity pins that a paged run is a pure function of
// (seed, plan, shape): the group engine at 0, 1 and 8 quantum executors
// must produce bit-identical fingerprints and metric snapshots, checkpoint
// traffic and all.
func TestPagedWorkerCountParity(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		sc := DefaultPagedScenario(seed)
		var ref *Result
		for _, sw := range []int{0, 1, 8} {
			s := sc
			s.SimWorkers = sw
			r, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Violations) > 0 {
				t.Errorf("seed %d workers %d: %v", seed, sw, r.Violations)
			}
			if ref == nil {
				ref = r
				continue
			}
			if r.Fingerprint != ref.Fingerprint {
				t.Errorf("seed %d workers %d: fingerprint %016x != %016x", seed, sw, r.Fingerprint, ref.Fingerprint)
			}
			if !bytes.Equal(r.Metrics, ref.Metrics) {
				t.Errorf("seed %d workers %d: metric snapshot diverges", seed, sw)
			}
		}
	}
}

// TestPagedKillRecoversFromCheckpoint forces a mid-window power kill on
// every run: recovery must come up from the checkpointed page slots plus
// the WAL tail read back through the FTL of the dead device, and once a
// checkpoint completed it must replay strictly less than the full stream
// (checked inside Run as I9).
func TestPagedKillRecoversFromCheckpoint(t *testing.T) {
	kills, ckpts := 0, 0
	for seed := int64(0); seed < 4; seed++ {
		sc := DefaultPagedScenario(seed)
		sc.Plan = &fault.Plan{Rules: []fault.Rule{{
			Point: fault.DevicePower + "@" + PrimaryName, Trigger: fault.TriggerAt,
			At: sc.Window * 3 / 4, Action: fault.ActionFail,
		}}}
		r, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !r.PowerLost {
			t.Fatalf("seed %d: kill rule did not fire", seed)
		}
		kills++
		if r.Checkpoints > 0 {
			ckpts++
		}
		if len(r.Violations) > 0 {
			t.Errorf("seed %d: %v", seed, r.Violations)
		}
	}
	if ckpts == 0 {
		t.Errorf("no killed run had completed a checkpoint before the crash")
	}
	t.Logf("%d kills, %d with a completed checkpoint", kills, ckpts)
}

// TestPagedSweepPrinterGreen runs the CLI-facing paged sweep once and
// checks its summary discipline.
func TestPagedSweepPrinterGreen(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestPagedSweepHoldsInvariants in short mode")
	}
	var buf bytes.Buffer
	if err := Sweep(&buf, DefaultPagedScenario, 3, 0); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out := buf.String()
	if strings.Contains(out, "VIOLATION") {
		t.Fatalf("violations in green sweep:\n%s", out)
	}
	if !strings.Contains(out, "ckpts=") || !strings.Contains(out, "I9 hold") {
		t.Fatalf("missing closing summary:\n%s", out)
	}
}

// faultsPageWrites reports whether plan injects a NAND or device power
// fault, the two that can make a checkpoint's page writes fail.
func faultsPageWrites(plan *fault.Plan) bool {
	for _, r := range plan.Rules {
		switch point, _, _ := strings.Cut(r.Point, "@"); point {
		case fault.NANDProgram, fault.NANDErase, fault.DevicePower:
			return true
		}
	}
	return false
}
