package chaos

import (
	"testing"
	"time"

	"xssd/internal/core"
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
