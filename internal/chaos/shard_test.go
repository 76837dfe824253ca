package chaos

import (
	"bytes"
	"strings"
	"testing"

	"xssd/internal/core"
	"xssd/internal/fault"
	"xssd/internal/shard"
	"xssd/internal/tpcc"
)

// TestShardSweepHoldsInvariants drives randomized sharded scenarios —
// varying shard count, replication shape, RPC disturbance, and single
// kills — through the full invariant battery (I1-I3, I5, I8).
func TestShardSweepHoldsInvariants(t *testing.T) {
	results, err := SweepResults(func(seed int64) Scenario { return DefaultShardScenario(seed, 0) }, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := Fold(results); got != 0xbe6931ff11cfa0af {
		t.Errorf("sharded 6-seed fold = %016x, want be6931ff11cfa0af (a sharded run's event history changed)", got)
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

// TestShardFaultsReachSecondaries pins the cluster's bring-up order: every
// member, each shard's secondaries included, is placed before the plan is
// hooked, so a power rule scoped to shard 1's secondary kills it and an
// unscoped NAND rule fires on a secondary's own injector too. The sharded
// invariants (I1-I3, I8) hold through both.
func TestShardFaultsReachSecondaries(t *testing.T) {
	// Lazy: the primaries' credit does not wait on a dead secondary. A
	// cluster has no failover manager to drop it from an eager or chain
	// replica set, so that shard's log would stop
	// (TestShardStuckLogIsAnI1Breach).
	sc := Scenario{Seed: 5, Shards: 2, Secondaries: 1, Scheme: core.Lazy}.withDefaults()
	sc.Plan = &fault.Plan{Rules: []fault.Rule{
		{Point: fault.DevicePower + "@s1.0", Trigger: fault.TriggerAt, At: sc.Window / 2, Action: fault.ActionFail},
		{Point: fault.NANDProgram, Trigger: fault.TriggerOn, Count: 20, Action: fault.ActionFail, Times: 2},
	}}
	run, err := RunShards(shard.Config{Shards: sc.Shards, Secondaries: sc.Secondaries, Scheme: sc.Scheme, Seed: sc.Seed},
		sc.Plan, loadSeed, tpcc.SpecMix(), sc.Window, settleTime)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if !run.Cluster.Shard(1).Secondaries()[0].PowerLost() {
		t.Error("s1.0 kept its power: its member has no injector")
	}
	// Injectors follow the members: the shards' own, then the secondaries.
	secFirings := 0
	for _, inj := range run.Faults.Injectors[sc.Shards:] {
		secFirings += len(inj.Firings())
	}
	if secFirings == 0 {
		t.Errorf("no secondary's injector fired (%d members, %d injectors)", len(run.Cluster.Envs()), len(run.Faults.Injectors))
	}

	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) > 0 {
		t.Errorf("violations: %v", r.Violations)
	}
	if r.Commits == 0 {
		t.Error("no transactions committed")
	}
}

// TestShardStuckLogIsAnI1Breach records what a dead eager secondary does
// to a cluster with no failover manager to drop it: shard 1's primary
// waits on the dead shadow for good, so a sink write stays outstanding and
// that shard's log stops. The harness must say so as I1 breaches on shard
// 1 alone (a backlog, and appended bytes the device lacks), and the
// oracle, which reads the batch still in flight, must not invent a
// diverging flash prefix beside them.
func TestShardStuckLogIsAnI1Breach(t *testing.T) {
	sc := Scenario{Seed: 5, Shards: 2, Secondaries: 1, Scheme: core.Eager}.withDefaults()
	sc.Plan = &fault.Plan{Rules: []fault.Rule{
		{Point: fault.DevicePower + "@s1.0", Trigger: fault.TriggerAt, At: sc.Window / 2, Action: fault.ActionFail},
		{Point: fault.NANDProgram, Trigger: fault.TriggerOn, Count: 20, Action: fault.ActionFail, Times: 2},
	}}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) == 0 {
		t.Fatal("a stuck log went unreported")
	}
	backlog := false
	for _, m := range r.Violations {
		if !strings.HasPrefix(m, "shard 1: I1: ") || strings.Contains(m, "diverges") {
			t.Errorf("want only shard 1's I1 breaches, got %q", m)
		}
		backlog = backlog || strings.Contains(m, "WAL backlog")
	}
	if !backlog {
		t.Errorf("no violation names the WAL backlog: %v", r.Violations)
	}
	t.Logf("%q", r.Violations)
}
