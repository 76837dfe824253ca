package shard

import (
	"testing"
	"time"

	"xssd/internal/sim"
)

// The 2PC layer's line of the per-layer microbenchmarks: one bank transfer
// on a 2-shard cluster (every shard on one member, no recorded sinks),
// either between two warehouses of shard 0 — the plain single-shard commit
// through shard.Tx — or from shard 0 to shard 1, a full presumed-abort
// round: remote read, remote write, prepare, decision, commit.
var transferKinds = []struct {
	name string
	dst  int // warehouse 1 pays dst
}{
	{"local", 2},
	{"cross", 3},
}

// onTransferCluster boots a 2-shard bank cluster, warms it with 20
// transfers from warehouse 1 to dst, and runs fn on shard 0's process.
func onTransferCluster(tb testing.TB, dst int, fn func(p *sim.Proc, cl *Cluster)) {
	tb.Helper()
	cl, err := New(Config{Shards: 2, Warehouses: 4, Seed: 42, Load: bankLoad(2, 4)})
	if err != nil {
		tb.Fatal(err)
	}
	defer cl.Close()
	cl.Build()
	done := false
	boot(tb, cl, func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if err := transfer(p, cl, 1, dst, 1); err != nil {
				tb.Errorf("warm-up transfer %d: %v", i, err)
				return
			}
		}
		fn(p, cl)
		done = true
	})
	for step := 0; !done && step < 1000; step++ {
		cl.Group().RunUntil(cl.Group().Now() + time.Second)
	}
	if !done {
		tb.Fatal("transfers did not finish")
	}
}

// TestShardTransferAllocations pins what one transfer allocates across
// the shard, db, wal and sim layers together, test helpers included
// (balance keys and values go through fmt). The cross-shard count carries
// the protocol: the participant transaction, the RPC closures, the control
// records and the prepare and resolver processes — and remoteGet's and
// remoteWrite's copies of the key, which the handler may use after the
// caller has moved on.
// A credit-register poll allocates nothing: the value is read into the
// logger's MMIO handle.
func TestShardTransferAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own schedule")
	}
	want := map[string]float64{"local": 22, "cross": 82}
	for _, k := range transferKinds {
		onTransferCluster(t, k.dst, func(p *sim.Proc, cl *Cluster) {
			got := testing.AllocsPerRun(100, func() {
				if err := transfer(p, cl, 1, k.dst, 1); err != nil {
					t.Errorf("%s: %v", k.name, err)
				}
			})
			if got != want[k.name] {
				t.Errorf("%s: %v allocs per transfer, want %v", k.name, got, want[k.name])
			}
		})
	}
}

// BenchmarkShardTransfer reports ns, allocations and simulator events per
// transfer.
func BenchmarkShardTransfer(b *testing.B) {
	for _, k := range transferKinds {
		b.Run(k.name, func(b *testing.B) {
			onTransferCluster(b, k.dst, func(p *sim.Proc, cl *Cluster) {
				b.ReportAllocs()
				events := cl.Group().Events()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := transfer(p, cl, 1, k.dst, 1); err != nil {
						b.Errorf("transfer %d: %v", i, err)
						return
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(cl.Group().Events()-events)/float64(b.N), "events/op")
			})
		})
	}
}
