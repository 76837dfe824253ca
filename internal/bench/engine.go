package bench

import (
	"xssd/internal/core"
	"xssd/internal/obs"
	"xssd/internal/sim"
	"xssd/internal/stack"
	"xssd/internal/villars"
)

// engineWorkers sizes the executor pool of every figure cell's sim.Group
// (the xbench -workers flag); values below 1 mean 1, the serial runner.
// Placement does not depend on it: every extra device a cell builds gets a
// member of its own, so a cell's events and measurements are the same at
// every count. Single-device figures (9-12) have one member, where quantum
// chopping is invisible; fig13 and the scheme ablation exchange NTB
// traffic at barriers.
var engineWorkers int

// SetEngineWorkers sets the executor count. The harness is
// single-threaded, so a package-level switch is acceptable — one
// experiment cell runs at a time.
func SetEngineWorkers(n int) { engineWorkers = n }

// newCell opens a cell's stack with engineWorkers executors: member 0
// seeded cfg.Seed, and the devices, replicas and log cfg asks for. Cells
// build further members through NewEnv, call Parallelize once setup is
// done, drive time through RunUntil, and defer Close so back-to-back cells
// do not accumulate parked goroutines.
func newCell(cfg stack.Config) (*stack.Stack, error) {
	cfg.Workers = engineWorkers
	return stack.New(cfg)
}

// newReplCell opens a cell whose devices form one replica set under
// workers executors: names[0] the primary on member 0 (seeded seed), and
// names[i] secondary i-1 on a member of its own, each built by dev. Boot
// sets the set up under scheme.
func newReplCell(seed int64, workers int, scheme core.ReplicationScheme, dev func(env *sim.Env, name string) *villars.Device, names ...string) *stack.Stack {
	c, _ := stack.New(stack.Config{ // a lone replica set always validates
		Seed: seed, Workers: workers, Secondaries: len(names) - 1, Scheme: scheme,
		Device: func(env *sim.Env, i int) *villars.Device { return dev(env, names[i]) },
	})
	return c
}

// newCellSim opens a bare cell: the group and its member 0 with the
// figure's seed. A bare stack always validates.
func newCellSim(seed int64) *stack.Stack {
	c, _ := newCell(stack.Config{Seed: seed})
	return c
}

// capture records the cell's event count and group counters and, under
// -metrics, its merged metrics snapshot.
func capture(c *sim.Group, cell string) {
	lastEvents = c.Events()
	lastGroupStats = c.Stats()
	if activeCapture == nil {
		return
	}
	activeCapture.cells = append(activeCapture.cells,
		CellMetrics{Cell: cell, Snapshot: obs.SnapshotOf(c.Envs())})
}
