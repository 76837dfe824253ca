package bench

import (
	"xssd/internal/obs"
	"xssd/internal/sim"
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

// cellSim is the per-cell simulation: a group started inline for bring-up.
// Cells build member 0 through env and every further device's member
// through NewEnv, call Parallelize once setup is done, drive time through
// RunUntil, and defer Close so back-to-back cells do not accumulate parked
// goroutines.
type cellSim struct {
	*sim.Group
	env *sim.Env // member 0
}

// newCellSim opens the cell's group and its member 0 with the figure's seed.
func newCellSim(seed int64) *cellSim {
	g := sim.NewGroup(sim.GroupConfig{Workers: engineWorkers, StartInline: true})
	return &cellSim{Group: g, env: g.NewEnv("m0", seed)}
}

// capture records the cell's event count and group counters and, under
// -metrics, its merged metrics snapshot.
func (c *cellSim) capture(cell string) {
	lastEvents = c.Events()
	lastGroupStats = c.Stats()
	if activeCapture == nil {
		return
	}
	activeCapture.cells = append(activeCapture.cells,
		CellMetrics{Cell: cell, Snapshot: obs.SnapshotOf(c.Envs())})
}
