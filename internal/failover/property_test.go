package failover_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"xssd/internal/chaos"
	"xssd/internal/core"
	"xssd/internal/fault"
)

// checkRun runs one scenario twice and enforces I6 (in-run invariants)
// and I7 (bit-identical re-run), returning the first run for extra
// scenario-specific assertions.
func checkRun(t *testing.T, sc chaos.Scenario) *chaos.Result {
	t.Helper()
	sc.Window = 20 * time.Millisecond // the kill times below are laid out for it
	r1, err := chaos.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, v := range r1.Violations {
		t.Errorf("violation: %s", v)
	}
	r2, err := chaos.Run(sc)
	if err != nil {
		t.Fatalf("Run (re-run): %v", err)
	}
	if r2.Fingerprint != r1.Fingerprint {
		t.Errorf("I7: re-run fingerprint %016x != %016x", r2.Fingerprint, r1.Fingerprint)
	}
	if !bytes.Equal(r2.Metrics, r1.Metrics) {
		t.Errorf("I7: re-run metrics snapshots differ")
	}
	if r1.Promoted == "" {
		t.Fatalf("no promotion recorded")
	}
	if r1.Commits <= r1.PreKillCommits {
		t.Errorf("no post-takeover commits: %d total, %d pre-kill", r1.Commits, r1.PreKillCommits)
	}
	if r1.Durable <= r1.DurableAtKill {
		t.Errorf("durable horizon stuck at the kill: at-kill %d, final %d", r1.DurableAtKill, r1.Durable)
	}
	return r1
}

// TestFailoverPropertyGrid sweeps the property space: every replication
// scheme × cluster sizes 2-4 × seeded kill times, each run twice. Every
// committed-before-kill transaction must be readable after promotion
// (I6, checked inside chaos.Run) and the whole failover timeline must
// replay bit for bit (I7).
func TestFailoverPropertyGrid(t *testing.T) {
	kills := 10
	if testing.Short() {
		kills = 2
	}
	for _, scheme := range []core.ReplicationScheme{core.Eager, core.Lazy, core.Chain} {
		for _, size := range []int{2, 3, 4} {
			for k := 0; k < kills; k++ {
				scheme, size, k := scheme, size, k
				t.Run(fmt.Sprintf("%s/size%d/kill%d", scheme, size, k), func(t *testing.T) {
					t.Parallel()
					checkRun(t, chaos.Scenario{
						Seed:        int64(1000 + k + size*10 + int(scheme)*100),
						Scheme:      scheme,
						Secondaries: size - 1,
						KillAt:      2*time.Millisecond + time.Duration(k)*1100*time.Microsecond,
					})
				})
			}
		}
	}
}

// dropsBeforeKill builds a plan that drops the next n mirrored chunks
// starting shortly before the kill — recent enough that the repair
// timeout (1 ms in the chaos devices) cannot resend them before the
// primary dies, so the holes are still open at election time.
func dropsBeforeKill(killAt time.Duration, n int64) *fault.Plan {
	return &fault.Plan{Rules: []fault.Rule{{
		Point:   fault.TransportMirror + "@" + chaos.PrimaryName,
		Trigger: fault.TriggerAt,
		At:      killAt - 900*time.Microsecond,
		Action:  fault.ActionDrop,
		Times:   n,
	}}}
}

// TestFailoverTailReplay forces the lazy scheme's hard case: the durable
// horizon outruns every survivor (dropped mirror chunks, unrepaired at
// the kill), so the takeover must re-drive the retained tail through the
// promoted device — no committed record may be lost.
func TestFailoverTailReplay(t *testing.T) {
	killAt := 8 * time.Millisecond
	r := checkRun(t, chaos.Scenario{
		Seed:        42,
		Scheme:      core.Lazy,
		Secondaries: 1,
		KillAt:      killAt,
		Plan:        dropsBeforeKill(killAt, 12),
	})
	if r.Replayed == 0 {
		t.Errorf("expected a tail replay (drops before the kill), got 0 bytes; resume=%d durable-at-kill=%d", r.ResumeAt, r.DurableAtKill)
	}
}

// TestFailoverBackfill forces the star-rebuild hole: drops on one
// survivor's bridge only (the NTB point is scoped per bridge, unlike
// transport.mirror, which would stall both peers at the same offset), so
// after the peer set is rebuilt the laggard has holes no retransmission
// window covers — the manager must backfill it from the retained stream
// before the host resumes.
func TestFailoverBackfill(t *testing.T) {
	killAt := 8 * time.Millisecond
	r := checkRun(t, chaos.Scenario{
		Seed:        43,
		Scheme:      core.Eager,
		Secondaries: 2,
		KillAt:      killAt,
		Plan: &fault.Plan{Rules: []fault.Rule{{
			Point:   fault.NTBDeliver + "@" + chaos.PrimaryName + "->s0",
			Trigger: fault.TriggerAt,
			At:      killAt - 900*time.Microsecond,
			Action:  fault.ActionDrop,
			Times:   6,
		}}},
	})
	if r.Backfilled == 0 {
		t.Errorf("expected a survivor backfill (drops before the kill), got 0 bytes; resume=%d", r.ResumeAt)
	}
	if r.Promoted != "s1" {
		t.Errorf("promoted %s, want s1 (s0 was lagging)", r.Promoted)
	}
}

// TestFailoverChainHealsWithoutBackfill: the chain keeps its downstream
// links across a takeover, so holes heal through the ordinary repair
// path — the manager must not transfer anything itself.
func TestFailoverChainHealsWithoutBackfill(t *testing.T) {
	killAt := 8 * time.Millisecond
	r := checkRun(t, chaos.Scenario{
		Seed:        44,
		Scheme:      core.Chain,
		Secondaries: 2,
		KillAt:      killAt,
		Plan:        dropsBeforeKill(killAt, 9),
	})
	if r.Backfilled != 0 {
		t.Errorf("chain takeover backfilled %d bytes, want 0 (links are preserved)", r.Backfilled)
	}
	if r.Promoted != "s0" {
		t.Errorf("chain promoted %s, want the next link s0", r.Promoted)
	}
}

// freezeSpanningKill freezes a secondary's shadow reporting across the
// kill, so the election sees StatusShadowFrozen on that device.
func freezeSpanningKill(name string, killAt, dur time.Duration) *fault.Plan {
	return &fault.Plan{Rules: []fault.Rule{{
		Point:   fault.TransportShadow + "@" + name,
		Trigger: fault.TriggerAt,
		At:      killAt - 100*time.Microsecond,
		Action:  fault.ActionFreeze,
		Dur:     dur,
	}}}
}

// TestFailoverElectionSkipsFrozenPeer: under a star scheme a frozen
// survivor must not be promoted — its persisted prefix cannot be trusted
// as current — even though it may hold the longest prefix.
func TestFailoverElectionSkipsFrozenPeer(t *testing.T) {
	killAt := 8 * time.Millisecond
	r := checkRun(t, chaos.Scenario{
		Seed:        45,
		Scheme:      core.Eager,
		Secondaries: 2,
		KillAt:      killAt,
		Plan:        freezeSpanningKill("s0", killAt, 2*time.Millisecond),
	})
	if r.Promoted != "s1" {
		t.Errorf("promoted %s, want s1 (s0's shadow was frozen at election time)", r.Promoted)
	}
}

// TestFailoverChainWaitsOutFrozenLink: a chain election never reorders
// around a frozen next link (that would orphan the downstream
// retransmission state); the manager retries until the freeze expires
// and then promotes the same link.
func TestFailoverChainWaitsOutFrozenLink(t *testing.T) {
	killAt := 8 * time.Millisecond
	freeze := 1500 * time.Microsecond
	r := checkRun(t, chaos.Scenario{
		Seed:        46,
		Scheme:      core.Chain,
		Secondaries: 2,
		KillAt:      killAt,
		Plan:        freezeSpanningKill("s0", killAt, freeze),
	})
	if r.Promoted != "s0" {
		t.Errorf("promoted %s, want the next link s0 after its freeze expired", r.Promoted)
	}
	if r.DetectToLive < freeze/2 {
		t.Errorf("takeover finished in %v, expected it to wait out most of the %v freeze", r.DetectToLive, freeze)
	}
}
