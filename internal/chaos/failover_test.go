package chaos

import (
	"testing"
	"time"

	"xssd/internal/core"
	"xssd/internal/fault"
)

// TestRunFailoverCleanKill is the harness smoke test: one kill per scheme
// with no background faults must promote exactly once and hold I6. Each
// secondary lives on a member of its own and the group stays inline, so
// the takeover touches them on one clock: detection to promotion is
// pinned per scheme at this seed.
func TestRunFailoverCleanKill(t *testing.T) {
	for _, tc := range []struct {
		scheme   core.ReplicationScheme
		takeover time.Duration
	}{
		{core.Eager, 200624 * time.Nanosecond},
		{core.Lazy, 200624 * time.Nanosecond},
		{core.Chain, 200624 * time.Nanosecond},
	} {
		scheme := tc.scheme
		t.Run(scheme.String(), func(t *testing.T) {
			r, err := Run(Scenario{
				Seed:        1,
				Scheme:      scheme,
				Secondaries: 2,
				Window:      20 * time.Millisecond,
				KillAt:      8 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, v := range r.Violations {
				t.Errorf("violation: %s", v)
			}
			if r.Promoted == "" {
				t.Fatalf("no promotion recorded")
			}
			if r.DetectToLive != tc.takeover {
				t.Errorf("takeover took %v, want %v", r.DetectToLive, tc.takeover)
			}
			if r.Commits <= r.PreKillCommits {
				t.Errorf("no post-takeover commits: %d total, %d pre-kill", r.Commits, r.PreKillCommits)
			}
			if r.DurableAtKill == 0 || r.Durable <= r.DurableAtKill {
				t.Errorf("durable horizon did not advance past the kill: at-kill %d, final %d", r.DurableAtKill, r.Durable)
			}
		})
	}
}

// TestRunFailoverReplaysAndBackfills stages the kill the randomized sweep
// never draws: half the mirror traffic dropped, so when the primary dies
// early the survivors lag its durable horizon. The takeover must replay
// the log's tail onto the promoted device and backfill the other
// survivor, hold I6, and re-run to the same fingerprint (I7).
func TestRunFailoverReplaysAndBackfills(t *testing.T) {
	sc := Scenario{
		Seed:        3,
		Scheme:      core.Lazy,
		Secondaries: 2,
		Window:      20 * time.Millisecond,
		KillAt:      5 * time.Millisecond,
		Plan: &fault.Plan{Rules: []fault.Rule{{
			Point: fault.TransportMirror, Trigger: fault.TriggerProb, Prob: 0.5, Action: fault.ActionDrop, Times: 100000,
		}}},
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, v := range r.Violations {
		t.Errorf("violation: %s", v)
	}
	if r.Replayed == 0 || r.Backfilled == 0 {
		t.Errorf("takeover replayed %d and backfilled %d bytes, want both above zero", r.Replayed, r.Backfilled)
	}
	again, err := Run(sc)
	if err != nil {
		t.Fatalf("re-run: %v", err)
	}
	if again.Fingerprint != r.Fingerprint {
		t.Errorf("I7: re-run fingerprint %016x != %016x", again.Fingerprint, r.Fingerprint)
	}
	t.Logf("promoted %s, resume %d, replay %d, backfill %d", r.Promoted, r.ResumeAt, r.Replayed, r.Backfilled)
}
