package chaos

import (
	"testing"
	"time"

	"xssd/internal/core"
)

// TestRunFailoverCleanKill is the harness smoke test: one kill per scheme
// with no background faults must promote exactly once and hold I6. With
// every device on one member (SimWorkers == 0) the takeover has nobody to
// serialize against and sleeps no group quanta: detection to promotion is
// the latency this seed had when the run was a bare Env.
func TestRunFailoverCleanKill(t *testing.T) {
	const loneMemberTakeover = 200624 * time.Nanosecond
	for _, scheme := range []core.ReplicationScheme{core.Eager, core.Lazy, core.Chain} {
		scheme := scheme
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
			if r.DetectToLive != loneMemberTakeover {
				t.Errorf("takeover took %v, want %v (a lone member waits out no quantum)", r.DetectToLive, loneMemberTakeover)
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
