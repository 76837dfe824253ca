package chaos

import (
	"bytes"
	"strings"
	"testing"

	"xssd/internal/fault"
)

// TestShardSweepHoldsInvariants drives randomized sharded scenarios —
// varying shard count, replication shape, RPC disturbance, and single
// kills — through the full invariant battery (I1-I3, I5, I8).
func TestShardSweepHoldsInvariants(t *testing.T) {
	results, err := SweepResults(func(seed int64) Scenario { return DefaultShardScenario(seed, 0) }, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := Fold(results); got != 0xfeaefeb49003ddcb {
		t.Errorf("sharded 6-seed fold = %016x, want feaefeb49003ddcb (a sharded run's event history changed)", got)
	}
	crashes := 0
	for _, sr := range results {
		if len(sr.Violations) > 0 {
			t.Errorf("seed %d: %v", sr.Seed, sr.Violations)
		}
		if sr.First.Commits == 0 {
			t.Errorf("seed %d: no transactions committed", sr.Seed)
		}
		if sr.First.PowerLost {
			crashes++
		}
	}
	t.Logf("%d/%d seeds included a shard kill", crashes, len(results))
}

// TestShardWorkerCountParity pins that the sharded scenario is a pure
// function of (seed, plan, shape): the serial runner (0 and 1 executors)
// and 2 and 8 quantum executors must produce bit-identical fingerprints
// and metric snapshots.
func TestShardWorkerCountParity(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		sc := DefaultShardScenario(seed, 4)
		var ref *Result
		for _, sw := range []int{0, 1, 2, 8} {
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

// TestShardKillStaysAtomic forces a mid-window coordinator kill on every
// run and checks that I8 and recovery hold — the sharded analogue of the
// classic crash tests, aimed at the 2PC in-doubt windows.
func TestShardKillStaysAtomic(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		sc := DefaultShardScenario(seed, 3)
		sc.Plan = &fault.Plan{Rules: []fault.Rule{{
			Point: fault.DevicePower + "@p0", Trigger: fault.TriggerAt,
			At: sc.Window / 2, Action: fault.ActionFail,
		}}}
		r, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !r.PowerLost {
			t.Fatalf("seed %d: kill rule did not fire", seed)
		}
		if len(r.Violations) > 0 {
			t.Errorf("seed %d: %v", seed, r.Violations)
		}
	}
}

// TestShardSweepPrinterGreen runs the CLI-facing sweep once and checks
// its summary discipline.
func TestShardSweepPrinterGreen(t *testing.T) {
	var buf bytes.Buffer
	if err := Sweep(&buf, func(seed int64) Scenario { return DefaultShardScenario(seed, 2) }, 3, 0); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out := buf.String()
	if strings.Contains(out, "VIOLATION") {
		t.Fatalf("violations in green sweep:\n%s", out)
	}
	if !strings.Contains(out, "I8 hold") {
		t.Fatalf("missing closing summary:\n%s", out)
	}
}
