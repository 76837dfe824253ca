package bench

import (
	"fmt"
	"time"

	"xssd/internal/db"
	"xssd/internal/shard"
	"xssd/internal/sim"
	"xssd/internal/tpcc"
	"xssd/internal/wal"
)

// The shard suite (xbench -suite shard): aggregate TPC-C throughput of
// the sharded cluster over a fixed virtual window. Three cell families:
//
//   - shard/sN: N primary devices, two warehouses and two terminals per
//     shard, the spec remote mix (1% remote order lines, 15% remote
//     payments). Commits is the aggregate committed-transaction count —
//     the scaling series: each shard owns an independent WAL pipeline,
//     so committed work should grow near-linearly with N.
//   - shard/s4/remoteR: the 4-shard cell under increasing cross-shard
//     pressure — R is the approximate percent of transactions that touch
//     a remote shard (0 = all local, 50 = half the payments go remote).
//     The commit count falls as 2PC round trips displace local commits.
//   - shard/s4/swN: the serial/parallel twins. Identical topology under
//     1, 2, and 8 quantum executors; Compare demands bit-identical event
//     and commit counts across the trio.
//
// Every cell pins its own SimWorkers, so the checked-in BENCH_PR9.json
// is stable regardless of the -workers flag.

// Shard suite tuning constants.
const (
	shardWindow = 20 * time.Millisecond // measured virtual window
	shardSettle = 5 * time.Millisecond  // drain tail after the window
	shardTerms  = 2                     // terminals per shard
	shardSeed   = 21
)

// ShardCells lists the suite in canonical order: the shard-count scaling
// series, the remote-mix sweep, and the engine twins.
func ShardCells() []Cell {
	cells := []Cell{}
	add := func(name string, run func() (Measurement, error)) {
		cells = append(cells, Cell{Name: name, Run: run})
	}
	for _, n := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("shard/s%d", n)
		n := n
		add(name, func() (Measurement, error) {
			return ShardBenchCell(name, n, 1, tpcc.SpecMix())
		})
	}
	for _, rm := range []struct {
		label string
		mix   tpcc.RemoteMix
	}{
		{"remote0", tpcc.RemoteMix{}},
		{"remote10", tpcc.SpecMix()},
		{"remote50", tpcc.RemoteMix{LinePct: 5, PayPct: 50}},
	} {
		name := "shard/s4/" + rm.label
		rm := rm
		add(name, func() (Measurement, error) {
			return ShardBenchCell(name, 4, 1, rm.mix)
		})
	}
	for _, sw := range []int{1, 2, 8} {
		name := fmt.Sprintf("shard/s4/sw%d", sw)
		sw := sw
		add(name, func() (Measurement, error) {
			return ShardBenchCell(name, 4, sw, tpcc.SpecMix())
		})
	}
	return cells
}

// ShardBenchCell runs one sharded-cluster topology to the end of the
// measurement window: shards primaries, two warehouses and two terminals
// each, no faults, the given remote mix. cell names the run for the
// metrics capture (xbench -metrics).
func ShardBenchCell(cell string, shards, simWorkers int, mix tpcc.RemoteMix) (Measurement, error) {
	tcfg := tpcc.Config{Warehouses: 2 * shards, Districts: 2, CustomersPerDistrict: 8, Items: 40, FillerLen: 10}
	cl, err := shard.New(shard.Config{
		Shards:     shards,
		Warehouses: tcfg.Warehouses,
		SimWorkers: simWorkers,
		Seed:       shardSeed,
		WAL:        wal.Config{GroupBytes: 4 << 10, GroupTimeout: 500 * time.Microsecond},
		Load: func(eng *db.Engine, id int) {
			tpcc.LoadWarehouses(eng, tcfg, shardSeed, func(w int) bool {
				return shard.OwnerOf(w, shards, tcfg.Warehouses) == id
			})
		},
	})
	if err != nil {
		return Measurement{}, err
	}
	defer cl.Close()
	cl.Build()

	var (
		bootErr error
		stop    bool
		clients []*tpcc.Client
	)
	cl.Shard(0).Env().Go("shard-bench-boot", func(p *sim.Proc) {
		if bootErr = cl.Boot(p); bootErr != nil {
			return
		}
		for _, sh := range cl.Shards() {
			sh := sh
			for w := 0; w < shardTerms; w++ {
				home := sh.ID()*2 + 1 + w%2
				c := tpcc.NewShardedClient(cl, tcfg, shardSeed*97+int64(sh.ID())*1000+int64(w)+1, home, mix)
				clients = append(clients, c)
				sh.Env().Go(fmt.Sprintf("term-%d-%d", sh.ID(), w), func(p *sim.Proc) {
					lg := sh.Log()
					for !stop {
						lg.WaitBacklog(p, 32<<10)
						if stop {
							return
						}
						p.Sleep(100 * time.Microsecond)
						c.RunMix(p)
					}
				})
			}
		}
		cl.Release()
	})
	cl.RunUntil(shardWindow)
	if bootErr != nil {
		return Measurement{}, bootErr
	}
	stop = true
	cl.RunUntil(shardWindow + shardSettle)

	m := Measurement{Events: cl.Events()}
	for _, c := range clients {
		byType, _, _ := c.Counts()
		for _, n := range byType {
			m.Commits += n
		}
	}
	lastEvents = m.Events
	if activeCapture != nil {
		activeCapture.cells = append(activeCapture.cells,
			CellMetrics{Cell: cell, Snapshot: cl.Snapshot()})
	}
	return m, nil
}

// CheckShardScaling is the throughput-scaling gate run after the suite:
// the 4-shard cell must commit at least minRatio times the 1-shard
// cell's aggregate. Both counts are virtual-deterministic, so a miss is
// a structural scaling regression (a serialization point across shards),
// never machine noise.
func CheckShardScaling(results []PerfResult, minRatio float64) error {
	var s1, s4 int64
	for _, r := range results {
		switch r.Bench {
		case "shard/s1":
			s1 = r.Commits
		case "shard/s4":
			s4 = r.Commits
		}
	}
	if s1 == 0 || s4 == 0 {
		return fmt.Errorf("bench: shard scaling gate: missing shard/s1 or shard/s4 cell")
	}
	if ratio := float64(s4) / float64(s1); ratio < minRatio {
		return fmt.Errorf("bench: shard scaling gate: shard/s4 committed %d vs shard/s1 %d (%.2fx < %.2fx)",
			s4, s1, ratio, minRatio)
	}
	return nil
}
