package villars_test

import (
	"bytes"
	"testing"
	"time"

	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/sim"
	"xssd/internal/villars"
	"xssd/internal/xapi"
)

// TestLoneMemberGroupMatchesBareEnv keeps the two engines in the tree the
// same simulator. Every harness (figures, chaos, shards) and xssd.System
// drive a sim.Group, while cmd/stackbench's single-device workloads drive a
// bare sim.Env; this runs one full device — an xapi writer under load,
// destaging behind it, a power loss in mid-stream and the supercapacitor
// drain after it — on both, and demands the same event count, the same
// metrics snapshot bytes and the same trace fingerprint. Quantum chopping is
// invisible to a lone member, at any executor count, inline or released.
func TestLoneMemberGroupMatchesBareEnv(t *testing.T) {
	const seed = 77
	type history struct {
		events  int64
		written int64
		snap    []byte
		trace   uint64
	}
	run := func(env *sim.Env, runUntil func(time.Duration) int) history {
		d := villars.New(env, villars.DefaultConfig("a"), pcie.NewHostMemory(1<<20))
		d.EnableTracing(4096)
		var written int64
		env.Go("writer", func(p *sim.Proc) {
			l := xapi.Open(p, d, xapi.Options{})
			for {
				l.XPwrite(p, make([]byte, 64+env.Rand().Intn(8<<10)))
				if l.XFsync(p) != nil {
					return // the power is gone
				}
				written = l.Written()
				p.Sleep(time.Duration(env.Rand().Intn(20)) * time.Microsecond)
			}
		})
		env.After(2*time.Millisecond, d.InjectPowerLoss)
		runUntil(5 * time.Millisecond)
		if !d.PowerLost() || written == 0 {
			t.Fatalf("run made no history: power lost %v, %d bytes written", d.PowerLost(), written)
		}
		return history{env.Events(), written, obs.For(env).Snapshot().Encode(), d.Tracer().Fingerprint()}
	}

	bare := sim.NewEnv(seed)
	want := run(bare, bare.RunUntil)
	bare.Close()
	t.Logf("bare Env: %d events, %d bytes written before the power loss", want.events, want.written)

	for _, workers := range []int{0, 2} {
		g := sim.NewGroup(sim.GroupConfig{Workers: workers, StartInline: true})
		env := g.NewEnv("m0", seed)
		g.Parallelize()
		got := run(env, g.RunUntil)
		g.Close()
		if got.events != want.events || got.written != want.written {
			t.Errorf("workers %d: %d events, %d bytes written; bare Env %d and %d",
				workers, got.events, got.written, want.events, want.written)
		}
		if !bytes.Equal(got.snap, want.snap) {
			t.Errorf("workers %d: metrics snapshot differs from the bare Env's", workers)
		}
		if got.trace != want.trace {
			t.Errorf("workers %d: trace fingerprint %016x, bare Env %016x", workers, got.trace, want.trace)
		}
	}
}
