package repl

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"xssd/internal/core"
	"xssd/internal/fault"
	"xssd/internal/obs"
	"xssd/internal/sim"
	"xssd/internal/villars"
)

// Chain replication (paper §4.2): the head mirrors to its successor, each
// link relays onward, and the head's effective credit tracks whole-chain
// persistence through a single shadow counter.

// makeDevices builds n small test devices named n0..n(n-1).
func makeDevices(env *sim.Env, n int) []*villars.Device {
	out := make([]*villars.Device, n)
	for i := range out {
		out[i] = testDevice(env, fmt.Sprintf("n%d", i))
	}
	return out
}

func chainCluster(t *testing.T, env *sim.Env, n int) *Cluster {
	t.Helper()
	c, err := New(env, makeDevices(env, n))
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	env.Go("setup", func(p *sim.Proc) {
		if err := c.Setup(p, 0, core.Chain); err != nil {
			t.Errorf("setup chain: %v", err)
			return
		}
		ok = true
	})
	env.RunUntil(env.Now() + time.Millisecond)
	if !ok {
		t.Fatal("chain setup did not complete")
	}
	return c
}

func TestChainDataReachesTail(t *testing.T) {
	env := sim.NewEnv(1)
	c := chainCluster(t, env, 3)
	env.Go("db", func(p *sim.Proc) {
		c.devices[0].CMB().MemWrite(0, make([]byte, 512))
	})
	env.RunUntil(env.Now() + 100*time.Millisecond)
	for i, d := range c.devices {
		if got := d.CMB().Ring().Frontier(); got != 512 {
			t.Fatalf("node %d frontier = %d, want 512 (relay broken)", i, got)
		}
	}
}

func TestChainHeadCreditTracksWholeChain(t *testing.T) {
	env := sim.NewEnv(1)
	c := chainCluster(t, env, 3)
	env.Go("db", func(p *sim.Proc) {
		c.devices[0].CMB().MemWrite(0, make([]byte, 256))
	})
	env.RunUntil(env.Now() + 100*time.Millisecond)
	head := c.devices[0]
	if got := head.EffectiveCredit(); got != 256 {
		t.Fatalf("head chain credit = %d, want 256", got)
	}
	// The head has exactly one peer (its successor), whose reported value
	// is the whole-chain minimum.
	if head.Transport().Peers() != 1 {
		t.Fatalf("head peers = %d, want 1 (chain, not star)", head.Transport().Peers())
	}
	if got := head.Transport().Shadow(0); got != 256 {
		t.Fatalf("head shadow = %d, want chain-combined 256", got)
	}
}

// TestChainSetupPinned pins a three-device chain's whole event history:
// the role commands and link wiring of its bring-up, then a fixed paced
// write stream relayed to the tail. The event count and the metrics
// snapshot's fingerprint move if bring-up issues one command more, fewer
// or in another order.
func TestChainSetupPinned(t *testing.T) {
	const (
		wantEvents = int64(210411)
		wantFP     = uint64(0x58b1ce85f8caad35)
	)
	env := sim.NewEnv(1)
	c := chainCluster(t, env, 3)
	env.Go("db", func(p *sim.Proc) {
		buf := make([]byte, 256)
		for i := 0; i < 16; i++ {
			for j := range buf {
				buf[j] = byte(i*31 + j)
			}
			c.devices[0].CMB().MemWrite(int64(i*len(buf)), buf)
			p.Sleep(3 * time.Microsecond)
		}
	})
	env.RunUntil(env.Now() + 20*time.Millisecond)
	if got := c.devices[2].CMB().Ring().Frontier(); got != 16*256 {
		t.Fatalf("tail frontier = %d, want %d", got, 16*256)
	}
	if got, fp := env.Events(), obs.For(env).Snapshot().Fingerprint(); got != wantEvents || fp != wantFP {
		t.Fatalf("events %d, snapshot fingerprint %#x; pinned %d, %#x", got, fp, wantEvents, wantFP)
	}
}

func TestChainNeedsTwoDevices(t *testing.T) {
	env := sim.NewEnv(1)
	c, err := New(env, makeDevices(env, 1))
	if err != nil {
		t.Fatal(err)
	}
	env.Go("setup", func(p *sim.Proc) {
		if err := c.Setup(p, 0, core.Chain); !errors.Is(err, ErrChainTooShort) {
			t.Errorf("single-node chain: %v, want ErrChainTooShort", err)
		}
	})
	env.RunUntil(env.Now() + time.Millisecond)
}

func TestChainSchemeRecorded(t *testing.T) {
	env := sim.NewEnv(1)
	c := chainCluster(t, env, 2)
	if c.Scheme() != core.Chain {
		t.Fatalf("scheme = %v", c.Scheme())
	}
	if c.Primary().Transport().Scheme() != core.Chain {
		t.Fatal("head scheme not chain")
	}
}

// attachPlan parses a fault plan and attaches its injector to env.
func attachPlan(t *testing.T, env *sim.Env, text string) {
	t.Helper()
	plan, err := fault.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	fault.Attach(env, fault.New(env, plan))
	t.Cleanup(func() { fault.Detach(env) })
}

// TestChainMidLinkDropRepairResends drops the first chunk a mid link
// relays downstream (n1 -> n2): the tail must converge anyway, through
// n1's repair-resend of its unacked window — the same retransmission
// state a chain takeover relies on to heal downstream holes without a
// backfill.
func TestChainMidLinkDropRepairResends(t *testing.T) {
	env := sim.NewEnv(1)
	attachPlan(t, env, "on 1 transport.mirror@n1 drop\n")
	c := chainCluster(t, env, 3)
	env.Go("db", func(p *sim.Proc) {
		c.devices[0].CMB().MemWrite(0, make([]byte, 512))
	})
	env.RunUntil(env.Now() + 100*time.Millisecond)

	drops, _, resends, _ := c.devices[1].Transport().FaultStats()
	if drops == 0 {
		t.Fatal("mid-link drop never fired")
	}
	if resends == 0 {
		t.Fatal("mid link converged without a repair resend")
	}
	if got := c.devices[2].CMB().Ring().Frontier(); got != 512 {
		t.Fatalf("tail frontier = %d after the repair window, want 512", got)
	}
}

// TestElectChainNextLink: a chain election picks the next link after the
// dead head — never a deeper survivor, even though frontiers tie — and
// walks past dead links to the next live one.
func TestElectChainNextLink(t *testing.T) {
	env := sim.NewEnv(1)
	c := chainCluster(t, env, 3)
	env.Go("db", func(p *sim.Proc) {
		c.devices[0].CMB().MemWrite(0, make([]byte, 512))
	})
	env.RunUntil(env.Now() + 50*time.Millisecond)

	c.devices[0].InjectPowerLoss()
	idx, err := c.Elect()
	if err != nil {
		t.Fatalf("Elect: %v", err)
	}
	if idx != 1 {
		t.Fatalf("elected %d, want the next link 1", idx)
	}

	c.devices[1].InjectPowerLoss()
	idx, err = c.Elect()
	if err != nil {
		t.Fatalf("Elect past dead link: %v", err)
	}
	if idx != 2 {
		t.Fatalf("elected %d, want 2", idx)
	}

	c.devices[2].InjectPowerLoss()
	if _, err := c.Elect(); !errors.Is(err, ErrNoCandidate) {
		t.Fatalf("Elect over a dead chain: %v, want ErrNoCandidate", err)
	}
}

// TestElectChainFrozenNextLink: a frozen next link is not skipped —
// reordering the chain would orphan downstream retransmission windows —
// so the election fails with ErrNoCandidate until the freeze expires,
// then returns the same link.
func TestElectChainFrozenNextLink(t *testing.T) {
	env := sim.NewEnv(1)
	attachPlan(t, env, "at 1500µs transport.shadow@n1 freeze 5ms\n")
	c := chainCluster(t, env, 3)
	env.RunUntil(env.Now() + 2*time.Millisecond)
	c.devices[0].InjectPowerLoss()

	if !c.devices[1].Transport().ShadowFrozen() {
		t.Fatal("n1 shadow not frozen at election time")
	}
	if _, err := c.Elect(); !errors.Is(err, ErrNoCandidate) {
		t.Fatalf("Elect with frozen next link: %v, want ErrNoCandidate", err)
	}

	env.RunUntil(env.Now() + 10*time.Millisecond)
	idx, err := c.Elect()
	if err != nil {
		t.Fatalf("Elect after the freeze expired: %v", err)
	}
	if idx != 1 {
		t.Fatalf("elected %d, want the thawed next link 1", idx)
	}
}

// TestElectStarSkipsFrozenPeer: under a star scheme a frozen survivor is
// passed over — its persisted prefix cannot be trusted as current — and
// becomes electable again once the freeze expires, then winning the
// lowest-index tie-break against an equal-frontier peer.
func TestElectStarSkipsFrozenPeer(t *testing.T) {
	env := sim.NewEnv(1)
	attachPlan(t, env, "at 1500µs transport.shadow@n1 freeze 5ms\n")
	c := threeNodeCluster(t, env, core.Eager)
	env.Go("db", func(p *sim.Proc) {
		c.Primary().CMB().MemWrite(0, make([]byte, 512))
	})
	env.RunUntil(env.Now() + 2*time.Millisecond)
	c.devices[0].InjectPowerLoss()

	if !c.devices[1].Transport().ShadowFrozen() {
		t.Fatal("n1 shadow not frozen at election time")
	}
	idx, err := c.Elect()
	if err != nil {
		t.Fatalf("Elect: %v", err)
	}
	if idx != 2 {
		t.Fatalf("elected %d, want 2 (n1 frozen)", idx)
	}

	env.RunUntil(env.Now() + 10*time.Millisecond)
	idx, err = c.Elect()
	if err != nil {
		t.Fatalf("Elect after the freeze expired: %v", err)
	}
	if idx != 1 {
		t.Fatalf("elected %d, want 1 (equal frontiers, lowest index)", idx)
	}
}

// TestElectNoSurvivors: with every member dead the election reports
// ErrNoCandidate rather than promoting a corpse.
func TestElectNoSurvivors(t *testing.T) {
	env := sim.NewEnv(1)
	c := threeNodeCluster(t, env, core.Lazy)
	for _, d := range c.Devices() {
		d.InjectPowerLoss()
	}
	if _, err := c.Elect(); !errors.Is(err, ErrNoCandidate) {
		t.Fatalf("Elect over a dead cluster: %v, want ErrNoCandidate", err)
	}
}

// TestPromoteChainCutsDeadPrefix: a chain takeover promotes the next
// link in place — the order shrinks to the surviving suffix and the
// downstream link stays wired, its retransmission window intact, so new
// head writes still reach the tail.
func TestPromoteChainCutsDeadPrefix(t *testing.T) {
	env := sim.NewEnv(1)
	c := chainCluster(t, env, 3)
	env.Go("db", func(p *sim.Proc) {
		c.devices[0].CMB().MemWrite(0, make([]byte, 256))
	})
	env.RunUntil(env.Now() + 50*time.Millisecond)
	c.devices[0].InjectPowerLoss()

	done := false
	env.Go("takeover", func(p *sim.Proc) {
		idx, err := c.Elect()
		if err != nil {
			t.Errorf("Elect: %v", err)
			return
		}
		if err := c.Promote(p, idx); err != nil {
			t.Errorf("Promote: %v", err)
			return
		}
		done = true
	})
	env.RunUntil(env.Now() + time.Millisecond)
	if !done {
		t.Fatal("takeover never completed")
	}
	if c.Primary() != c.devices[1] {
		t.Fatalf("primary = %s, want n1", c.Primary().Name())
	}
	if got := c.devices[1].Transport().Mode(); got != core.Primary {
		t.Fatalf("new head mode = %v", got)
	}
	if peers := c.devices[1].Transport().Peers(); peers != 1 {
		t.Fatalf("new head peers = %d, want its preserved downstream link", peers)
	}
	if c.Promotions() != 1 {
		t.Fatalf("promotions = %d", c.Promotions())
	}
	// The preserved link still replicates: new head writes reach the tail.
	env.Go("db2", func(p *sim.Proc) {
		c.devices[1].CMB().MemWrite(256, make([]byte, 128))
	})
	env.RunUntil(env.Now() + 50*time.Millisecond)
	if got := c.devices[2].CMB().Ring().Frontier(); got != 384 {
		t.Fatalf("tail frontier = %d after new-head write, want 384", got)
	}
}

// TestPromoteChainKeepsDownstreamLink: a planned handoff on a live chain
// promotes n1 in place. n1 keeps its one link to n2, the old head leaves
// the chain as a secondary with no peers, and n1's writes reach n2.
func TestPromoteChainKeepsDownstreamLink(t *testing.T) {
	env := sim.NewEnv(1)
	c := chainCluster(t, env, 3)
	env.Go("db", func(p *sim.Proc) {
		c.devices[0].CMB().MemWrite(0, make([]byte, 256))
	})
	env.RunUntil(env.Now() + 50*time.Millisecond)

	done := false
	env.Go("handoff", func(p *sim.Proc) {
		if err := c.Promote(p, 1); err != nil {
			t.Errorf("Promote: %v", err)
			return
		}
		done = true
	})
	env.RunUntil(env.Now() + time.Millisecond)
	if !done {
		t.Fatal("handoff never completed")
	}
	n0, n1 := c.devices[0].Transport(), c.devices[1].Transport()
	if n1.Mode() != core.Primary || n1.Scheme() != core.Chain {
		t.Fatalf("n1 mode %v scheme %v, want a primary heading a chain", n1.Mode(), n1.Scheme())
	}
	if n1.Peers() != 1 {
		t.Fatalf("n1 peers = %d, want its one link to n2", n1.Peers())
	}
	if n0.Mode() != core.Secondary || n0.Peers() != 0 {
		t.Fatalf("old head mode %v with %d peers, want a secondary with none", n0.Mode(), n0.Peers())
	}
	env.Go("db2", func(p *sim.Proc) {
		c.devices[1].CMB().MemWrite(256, make([]byte, 128))
	})
	env.RunUntil(env.Now() + 50*time.Millisecond)
	if got := c.devices[2].CMB().Ring().Frontier(); got != 384 {
		t.Fatalf("n2 frontier = %d after n1's write, want 384", got)
	}
	if lag := c.Lag(); len(lag) != 1 || lag[0] != 0 {
		t.Fatalf("lag = %v, want one settled entry", lag)
	}
}
