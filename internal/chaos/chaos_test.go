package chaos

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"xssd/internal/fault"
	"xssd/internal/shard"
)

// Determinism regression (invariant I5): the same (seed, plan) must
// reproduce the run bit for bit, and different seeds must diverge.
func TestSameSeedAndPlanReproduceExactly(t *testing.T) {
	sc := DefaultScenario(3) // replicated, 21 fault firings: a busy run
	r1, err := Run(sc)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	r2, err := Run(sc)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Fatalf("same (seed, plan) diverged: %016x vs %016x", r1.Fingerprint, r2.Fingerprint)
	}
	if r1.Commits != r2.Commits || r1.Written != r2.Written || r1.Destaged != r2.Destaged || r1.Firings != r2.Firings {
		t.Fatalf("same (seed, plan) diverged in stats: %+v vs %+v", r1, r2)
	}
	// The metrics side of I5: under an active fault plan, the encoded
	// snapshot — every counter, gauge, and histogram bucket in the whole
	// stack — must replay byte for byte.
	if len(r1.Metrics) == 0 {
		t.Fatal("run produced no metrics snapshot")
	}
	if !bytes.Equal(r1.Metrics, r2.Metrics) {
		t.Fatalf("same (seed, plan) produced different metrics snapshots:\n%s\nvs\n%s", r1.Metrics, r2.Metrics)
	}
	r3, err := Run(DefaultScenario(4))
	if err != nil {
		t.Fatalf("run 3: %v", err)
	}
	if r3.Fingerprint == r1.Fingerprint {
		t.Fatalf("different seeds produced identical fingerprint %016x (suspicious)", r1.Fingerprint)
	}
}

// A fixed plan (not a RandomPlan) must drive the same machinery: parse a
// textual schedule, run it, and hold the invariants.
func TestParsedPlanRuns(t *testing.T) {
	plan, err := fault.Parse(`
# mixed transients, then a crash
prob 0.05 transport.mirror drop x 6
on 20 wal.sink fail x 2
at 6ms transport.shadow freeze 3ms
at 14ms device.power@p fail
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := Run(Scenario{Seed: 11, Plan: plan, Secondaries: 1, Window: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !r.PowerLost {
		t.Fatal("scheduled power loss did not happen")
	}
	if r.Firings == 0 {
		t.Fatal("no fault rules fired")
	}
	for _, v := range r.Violations {
		t.Errorf("violation: %s", v)
	}
}

// Sweep is the xbench -chaos entry point; keep a small always-on run so
// the end-to-end path (two runs per seed, I5 cross-check, reporting)
// stays exercised in CI — and pin its fold, so a drift in any classic
// fingerprint fails here instead of waiting for someone to diff sweeps.
func TestSweepSmall(t *testing.T) {
	seeds, want := 3, uint64(0xeacd61db7164ef57)
	if testing.Short() {
		seeds, want = 2, 0x52c1f5fc88bec220
	}
	var buf bytes.Buffer
	if err := Sweep(&buf, DefaultScenario, seeds, 0); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if fold := fmt.Sprintf("fold %016x", want); !strings.Contains(buf.String(), fold) {
		t.Errorf("classic %d-seed sweep: want %q in\n%s", seeds, fold, buf.String())
	}
}

// TestRunRejectsUncomposedAxes: a scenario naming two axes the harness
// cannot run together (or a kill it cannot stage) must come back as an
// error, never as a run with one axis dropped and a green summary.
func TestRunRejectsUncomposedAxes(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   Scenario
		want string
	}{
		{"shards×paged", Scenario{Shards: 2, Paged: true}, "Shards and Paged"},
		{"shards×kill", Scenario{Shards: 2, Secondaries: 1, KillAt: 8 * time.Millisecond}, "Shards and KillAt"},
		{"paged×kill", Scenario{Paged: true, Secondaries: 1, KillAt: 8 * time.Millisecond}, "Paged and KillAt"},
		{"kill without a survivor", Scenario{KillAt: 8 * time.Millisecond}, "at least one secondary"},
		{"kill after the window", Scenario{Secondaries: 1, KillAt: 30 * time.Millisecond}, "outside the window"},
		{"kill before time zero", Scenario{Secondaries: 1, KillAt: -time.Millisecond}, "outside the window"},
		{"malformed plan", Scenario{Plan: &fault.Plan{Rules: []fault.Rule{{Point: "no.such.point"}}}}, "rule 0"},
	} {
		r, err := Run(tc.sc)
		if err == nil {
			t.Errorf("%s: Run accepted the scenario (violations %v)", tc.name, r.Violations)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// Regression for the stall-monitor redesign: the I4 oracle must be
// driveable from the primary's side alone. A deterministic shadow freeze
// longer than twice the stall timeout has to (a) register as a
// suppression stretch in MaxSuppressed and (b) surface as the stall bit
// in the primary's status register — with no I4 violation, since the bit
// and the stretch are observed by the same poll loop.
func TestStallMonitorSurfacesFrozenShadow(t *testing.T) {
	plan, err := fault.Parse("at 5ms transport.shadow freeze 10ms\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := Run(Scenario{Seed: 21, Plan: plan, Secondaries: 1, Window: 25 * time.Millisecond})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if r.Firings == 0 {
		t.Fatal("freeze rule did not fire")
	}
	if r.MaxSuppressed <= 2*shard.DefaultStallTimeout {
		t.Fatalf("monitor saw max suppression %v, want > %v: the primary-side staleness streak missed the freeze", r.MaxSuppressed, 2*shard.DefaultStallTimeout)
	}
	if !r.StallSeen {
		t.Fatal("status register never showed StatusReplicaStalled during a 10ms shadow freeze")
	}
	for _, v := range r.Violations {
		t.Errorf("violation: %s", v)
	}
}
