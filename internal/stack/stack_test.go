package stack_test

import (
	"strings"
	"testing"
	"time"

	"xssd/internal/ckpt"
	"xssd/internal/core"
	"xssd/internal/db"
	"xssd/internal/obs"
	"xssd/internal/shard"
	"xssd/internal/sim"
	"xssd/internal/stack"
	"xssd/internal/tpcc"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// TestValidateRejectsUncomposedPairs: each pair of stack parts that is not
// composed yet comes back as an error naming the pair, and each part on
// its own is accepted.
func TestValidateRejectsUncomposedPairs(t *testing.T) {
	paged := &stack.Paged{Slots: 64, Pool: 8}
	for _, tc := range []struct {
		cfg  stack.Config
		want string
	}{
		{stack.Config{Shard: shard.Scope(0), Paged: paged}, "Shards and Paged"},
		{stack.Config{Paged: paged, Secondaries: 1, Failover: true}, "Paged and KillAt"},
		{stack.Config{Shard: shard.Scope(0), Secondaries: 1, Failover: true}, "Shards and KillAt"},
		{stack.Config{Failover: true}, "at least one secondary"},
	} {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want an error naming %q", tc.cfg, err, tc.want)
		}
		if _, nerr := stack.New(tc.cfg); nerr == nil {
			t.Errorf("New accepted %+v", tc.cfg)
		}
	}
	for _, ok := range []stack.Config{
		{Paged: paged, Secondaries: 2},
		{Secondaries: 1, Failover: true},
		{Shard: shard.Scope(3), Secondaries: 1},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", ok, err)
		}
	}
}

// pagedStack boots a paged TPC-C stack with two eager secondaries,
// commits a few transactions and completes one checkpoint, then commits a
// few more. It returns the stack, whose log retains its stream, and the
// table load.
func pagedStack(t *testing.T) (*stack.Stack, func(*db.Engine)) {
	t.Helper()
	tcfg := tpcc.Config{Warehouses: 2, Districts: 2, CustomersPerDistrict: 8, Items: 40, FillerLen: 10}
	load := func(e *db.Engine) { tpcc.Load(e, tcfg, 7) }
	st, err := stack.New(stack.Config{
		Seed:        3,
		Secondaries: 2,
		Scheme:      core.Eager,
		Device: func(env *sim.Env, i int) *villars.Device {
			return shard.DefaultDevice(env, []string{"p", "s0", "s1"}[i])
		},
		Sink:  "t",
		WAL:   wal.Config{GroupBytes: 4 << 10, GroupTimeout: 500 * time.Microsecond, Retain: true},
		Paged: &stack.Paged{Slots: 1024, Pool: 64},
		Load:  load,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	done := false
	st.Host.Go("test", func(p *sim.Proc) {
		defer func() { done = true }()
		if err := st.Boot(p); err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		client := tpcc.NewClient(st.Engine, tcfg, 11, 1)
		for phase := 0; phase < 2; phase++ {
			for i := 0; i < 10; i++ {
				if _, err := client.RunMix(p); err != nil {
					t.Errorf("txn: %v", err)
					return
				}
			}
			if phase == 0 {
				if ok, err := st.Ckpt.RunOnce(p); !ok || err != nil {
					t.Errorf("checkpoint: completed %v, %v", ok, err)
					return
				}
			}
		}
	})
	st.RunUntil(time.Second)
	if !done {
		t.Fatal("workload did not finish")
	}
	return st, load
}

// TestPagesReadsCompletedCheckpoint: recovery through the post-mortem
// reader — the last completed checkpoint's images from the primary's
// flash plus the log tail — rebuilds the live engine's state.
func TestPagesReadsCompletedCheckpoint(t *testing.T) {
	st, load := pagedStack(t)
	if st.Pages() == nil {
		t.Fatal("a paged stack has no post-mortem reader")
	}
	var live, recovered uint64
	var stats ckpt.Stats
	finished := false
	st.Host.Go("verify", func(p *sim.Proc) {
		defer func() { finished = true }()
		live = st.Engine.FingerprintIn(p)
		stream, err := st.Log.StreamRange(0, st.Log.AppendedLSN())
		if err != nil {
			t.Errorf("log stream: %v", err)
			return
		}
		eng, s, err := ckpt.Recover(p, st.Host, st.Pages(), 64, wal.DecodeAll(stream), load)
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		recovered, stats = eng.FingerprintIn(p), s
	})
	st.RunUntil(st.Now() + time.Second)
	if !finished {
		t.Fatal("verification did not finish")
	}
	if !stats.Found || stats.Tail >= stats.Total {
		t.Errorf("recovery found checkpoint %v and replayed %d of %d records, want the checkpoint and a shorter tail", stats.Found, stats.Tail, stats.Total)
	}
	if recovered != live {
		t.Errorf("recovered %016x, live %016x", recovered, live)
	}
	if (&stack.Stack{}).Pages() != nil {
		t.Error("a row-map stack has a post-mortem page reader")
	}
}

// TestStackSnapshotsMerge: a stack's members register disjoint series —
// the builder scopes each device's, the replica set's and the paged
// engine's — so merging their snapshots, which panics on a duplicate,
// succeeds and keeps every member's series.
func TestStackSnapshotsMerge(t *testing.T) {
	st, _ := pagedStack(t)
	snap := obs.SnapshotOf(st.Envs())
	names := map[string]bool{}
	for _, c := range snap.Counters {
		names[c.Name] = true
	}
	for _, g := range snap.Gauges {
		names[g.Name] = true
	}
	for _, prefix := range []string{"p/pager/", "p/ckpt/", "repl/", "s0/", "s1/"} {
		found := false
		for n := range names {
			found = found || strings.HasPrefix(n, prefix)
		}
		if !found {
			t.Errorf("merged snapshot has no %s* series", prefix)
		}
	}
}
