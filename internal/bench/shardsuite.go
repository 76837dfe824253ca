package bench

import (
	"fmt"
	"time"

	"xssd/internal/chaos"
	"xssd/internal/shard"
	"xssd/internal/tpcc"
)

// The shard cells of the suite: aggregate TPC-C throughput of the sharded
// cluster over a fixed virtual window. Three cell families:
//
//   - shard/sN: N primary devices, two warehouses and two terminals per
//     shard, the spec remote mix (1% remote order lines, 15% remote
//     payments). Commits is the aggregate committed-transaction count —
//     the scaling series: each shard owns an independent WAL pipeline,
//     so committed work should grow near-linearly with N.
//   - shard/s4/remoteR: the 4-shard cell under other cross-shard
//     pressure — R is the approximate percent of transactions that touch
//     a remote shard (0 = all local, 50 = half the payments go remote;
//     the spec mix, about 10, is shard/s4 itself). The commit count falls
//     as 2PC round trips displace local commits.
//   - shard/s4/swN: shard/s4 under 2 and 8 quantum executors (shard/s4
//     runs one). Compare demands bit-identical event and commit counts
//     across the twins, and the wall-clock ratios are the speed-ups.
//
// Every cell pins its own SimWorkers, so its rows in BENCH.json are
// stable regardless of the -workers flag.

// Shard suite tuning constants.
const (
	shardWindow = 20 * time.Millisecond // measured virtual window
	shardSettle = 5 * time.Millisecond  // drain tail after the window
	shardSeed   = 21
)

// shardCells lists the shard cells in canonical order: the shard-count
// scaling series, the remote-mix sweep, and the engine twins.
func shardCells() []Cell {
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
		{"remote50", tpcc.RemoteMix{LinePct: 5, PayPct: 50}},
	} {
		name := "shard/s4/" + rm.label
		rm := rm
		add(name, func() (Measurement, error) {
			return ShardBenchCell(name, 4, 1, rm.mix)
		})
	}
	for _, sw := range []int{2, 8} {
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
// each (chaos.RunShards, as the sharded chaos scenario runs them), no
// faults, the given remote mix. cell names the run for the metrics
// capture (xbench -metrics).
func ShardBenchCell(cell string, shards, simWorkers int, mix tpcc.RemoteMix) (Measurement, error) {
	run, err := chaos.RunShards(shard.Config{Shards: shards, SimWorkers: simWorkers, Seed: shardSeed},
		nil, shardSeed, mix, shardWindow, shardSettle)
	if err != nil {
		return Measurement{}, err
	}
	defer run.Close()
	capture(run.Cluster.Group(), cell)
	return Measurement{Events: lastEvents, Commits: run.Commits}, nil
}

// shardScalingFloor: the 4-shard cell must commit at least this multiple
// of the 1-shard cell's aggregate — the headline scaling claim of the
// sharded cluster, gated at generation time so a regressing tree cannot
// even produce a results file.
const shardScalingFloor = 3.0

// CheckShardScaling is the throughput-scaling gate run after every suite
// run: the 4-shard cell must commit at least shardScalingFloor times the
// 1-shard cell's aggregate. Both counts are virtual-deterministic, so a
// miss is a structural scaling regression (a serialization point across
// shards), never machine noise.
func CheckShardScaling(results []PerfResult) error {
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
	if ratio := float64(s4) / float64(s1); ratio < shardScalingFloor {
		return fmt.Errorf("bench: shard scaling gate: shard/s4 committed %d vs shard/s1 %d (%.2fx < %.2fx)",
			s4, s1, ratio, shardScalingFloor)
	}
	return nil
}
