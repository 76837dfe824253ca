package bench

import (
	"xssd/internal/obs"
	"xssd/internal/sim"
)

// engineWorkers places the devices of every figure cell and sizes its
// executor pool: every cell runs on a sim.Group, with 0 putting all of a
// cell's devices on member 0 and n >= 1 giving each extra device a member
// of its own and the group n quantum executors. Single-device figures
// (9-12) have one member either way, so their event streams do not depend
// on it (quantum chopping is invisible to a lone member); fig13 at n >= 1
// puts the secondary on its own member and exchanges NTB traffic at
// barriers.
var engineWorkers int

// SetEngineWorkers sets the placement (the xbench -workers flag). The
// harness is single-threaded, so a package-level switch is acceptable —
// one experiment cell runs at a time.
func SetEngineWorkers(n int) { engineWorkers = n }

// cellSim is the per-cell simulation: a group started inline for bring-up.
// Cells build their topology against env and member(), call Parallelize once
// setup is done, drive time through RunUntil, and defer Close so
// back-to-back cells do not accumulate parked goroutines.
type cellSim struct {
	*sim.Group
	env *sim.Env // member 0
}

// newCellSim opens the cell's group and its member 0 with the figure's seed.
func newCellSim(seed int64) *cellSim {
	g := sim.NewGroup(sim.GroupConfig{Workers: engineWorkers, StartInline: true})
	return &cellSim{Group: g, env: g.NewEnv("m0", seed)}
}

// member returns the Env an extra device goes on: a new member at
// engineWorkers >= 1, member 0 otherwise — so the same wiring code builds
// both placements.
func (c *cellSim) member(name string, seed int64) *sim.Env {
	if engineWorkers == 0 {
		return c.env
	}
	return c.NewEnv(name, seed)
}

// capture records the cell's event count and, under -metrics, its merged
// metrics snapshot.
func (c *cellSim) capture(cell string) {
	lastEvents = c.Events()
	if activeCapture == nil {
		return
	}
	activeCapture.cells = append(activeCapture.cells,
		CellMetrics{Cell: cell, Snapshot: obs.SnapshotOf(c.Envs())})
}
