package failover_test

import (
	"errors"
	"testing"

	"xssd/internal/failover"
	"xssd/internal/sim"
)

// TestFailoverNewRefusesParallelGroup: a takeover rewires every member
// directly, which races on a group running parallel quanta, so New refuses
// a host Env whose group is not inline — before it reads the cluster or
// starts a watchdog.
func TestFailoverNewRefusesParallelGroup(t *testing.T) {
	for _, released := range []bool{false, true} {
		g := sim.NewGroup(sim.GroupConfig{StartInline: released})
		env := g.NewEnv("host", 1)
		if released {
			g.Parallelize()
			g.RunUntil(0)
		}
		m, err := failover.New(env, nil, nil, nil)
		g.Close()
		if !errors.Is(err, failover.ErrParallelGroup) || m != nil {
			t.Errorf("released=%v: New = %v, %v; want nil, ErrParallelGroup", released, m, err)
		}
	}
}
