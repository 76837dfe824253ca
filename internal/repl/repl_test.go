package repl

import (
	"testing"
	"time"

	"xssd/internal/core"
	"xssd/internal/nand"
	"xssd/internal/pcie"
	"xssd/internal/sim"
	"xssd/internal/villars"
)

func testDevice(env *sim.Env, name string) *villars.Device {
	cfg := villars.DefaultConfig(name)
	cfg.Geometry = nand.Geometry{Channels: 2, WaysPerChan: 2, BlocksPerDie: 32, PagesPerBlock: 32, PageSize: 2048}
	cfg.Timing = nand.Timing{TRead: 5 * time.Microsecond, TProg: 20 * time.Microsecond, TErase: 100 * time.Microsecond, BusRate: 1e9}
	cfg.QueueSize = 4096
	cfg.CMBSize = 64 << 10
	return villars.New(env, cfg, pcie.NewHostMemory(1<<20))
}

func threeNodeCluster(t *testing.T, env *sim.Env, scheme core.ReplicationScheme) *Cluster {
	t.Helper()
	devs := []*villars.Device{testDevice(env, "n0"), testDevice(env, "n1"), testDevice(env, "n2")}
	c, err := New(env, devs)
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	env.Go("setup", func(p *sim.Proc) {
		if err := c.Setup(p, 0, scheme); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		ok = true
	})
	env.RunUntil(env.Now() + time.Millisecond)
	if !ok {
		t.Fatal("setup never completed")
	}
	return c
}

func TestSetupAssignsRoles(t *testing.T) {
	env := sim.NewEnv(1)
	c := threeNodeCluster(t, env, core.Eager)
	if c.Primary().Name() != "n0" {
		t.Fatalf("primary = %s", c.Primary().Name())
	}
	if got := c.Primary().Transport().Mode(); got != core.Primary {
		t.Fatalf("primary mode = %v", got)
	}
	secs := c.Devices()[1:]
	if len(secs) != 2 {
		t.Fatalf("secondaries = %d", len(secs))
	}
	for _, s := range secs {
		if s.Transport().Mode() != core.Secondary {
			t.Fatalf("%s mode = %v", s.Name(), s.Transport().Mode())
		}
	}
	if c.Primary().Transport().Peers() != 2 {
		t.Fatalf("peer count = %d", c.Primary().Transport().Peers())
	}
}

func TestWritesReachAllSecondaries(t *testing.T) {
	env := sim.NewEnv(1)
	c := threeNodeCluster(t, env, core.Eager)
	env.Go("db", func(p *sim.Proc) {
		c.Primary().CMB().MemWrite(0, make([]byte, 512))
	})
	env.RunUntil(env.Now() + 50*time.Millisecond)
	for _, s := range c.Devices()[1:] {
		if s.CMB().Ring().Frontier() != 512 {
			t.Fatalf("%s frontier = %d", s.Name(), s.CMB().Ring().Frontier())
		}
	}
	for i, lag := range c.Lag() {
		if lag != 0 {
			t.Fatalf("peer %d lag = %d after settle", i, lag)
		}
	}
}

func TestEmptyClusterRejected(t *testing.T) {
	env := sim.NewEnv(1)
	if _, err := New(env, nil); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

func TestSetupIndexOutOfRange(t *testing.T) {
	env := sim.NewEnv(1)
	c, _ := New(env, []*villars.Device{testDevice(env, "solo")})
	env.Go("setup", func(p *sim.Proc) {
		if err := c.Setup(p, 5, core.Eager); err == nil {
			t.Error("out-of-range primary accepted")
		}
	})
	env.RunUntil(time.Millisecond)
}

func TestPromoteAfterPrimaryFailure(t *testing.T) {
	env := sim.NewEnv(1)
	c := threeNodeCluster(t, env, core.Eager)
	// Replicate some data, then kill the primary.
	env.Go("db", func(p *sim.Proc) {
		c.Primary().CMB().MemWrite(0, make([]byte, 256))
		p.Sleep(10 * time.Millisecond)
		c.Primary().InjectPowerLoss()
		if err := c.Promote(p, 1); err != nil {
			t.Errorf("promote: %v", err)
			return
		}
	})
	env.RunUntil(env.Now() + 100*time.Millisecond)
	if c.Primary().Name() != "n1" {
		t.Fatalf("primary after failover = %s", c.Primary().Name())
	}
	if c.Primary().Transport().Mode() != core.Primary {
		t.Fatal("new primary not in primary mode")
	}
	// Only n2 remains a peer (n0 is dead).
	if c.Primary().Transport().Peers() != 1 {
		t.Fatalf("peer count after failover = %d", c.Primary().Transport().Peers())
	}
	if c.Stats().Promotions != 1 {
		t.Fatalf("promotions = %d", c.Stats().Promotions)
	}
	// New primary replicates onward to the surviving secondary.
	env.Go("db2", func(p *sim.Proc) {
		c.Primary().CMB().MemWrite(256, make([]byte, 128))
	})
	env.RunUntil(env.Now() + 50*time.Millisecond)
	n2 := c.devices[2]
	if n2.CMB().Ring().Frontier() != 384 {
		t.Fatalf("survivor frontier = %d, want 384", n2.CMB().Ring().Frontier())
	}
}

func TestPromoteSamePrimaryNoop(t *testing.T) {
	env := sim.NewEnv(1)
	c := threeNodeCluster(t, env, core.Lazy)
	env.Go("p", func(p *sim.Proc) {
		if err := c.Promote(p, 0); err != nil {
			t.Errorf("noop promote: %v", err)
		}
	})
	env.RunUntil(env.Now() + time.Millisecond)
	if c.Stats().Promotions != 0 {
		t.Fatal("noop promote counted")
	}
}

func TestSchemeAppliedToPrimary(t *testing.T) {
	env := sim.NewEnv(1)
	c := threeNodeCluster(t, env, core.Chain)
	if c.Primary().Transport().Scheme() != core.Chain {
		t.Fatal("scheme not applied")
	}
	if c.Scheme() != core.Chain {
		t.Fatal("cluster scheme not recorded")
	}
}
