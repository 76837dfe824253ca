package bench

import (
	"fmt"
	"time"

	"xssd/internal/chaos"
	"xssd/internal/pm"
	"xssd/internal/sched"
)

// The perf suite: one representative cell per figure plus one chaos seed,
// each returning the number of simulator events it dispatched. The harness
// in cmd/xbench times these against the wall clock (this package stays
// virtual-time only) and writes the canonical BENCH_PR4.json.

// perfChaosSeed picks a chaos scenario with replication enabled so the
// timed cell exercises the transport and fault paths, not just local
// logging. Seed 7 draws two secondaries under DefaultScenario.
const perfChaosSeed = 7

// PerfCell is one timed unit of the perf suite. Run executes the cell to
// completion and reports how many simulator events it dispatched.
type PerfCell struct {
	Name string
	Run  func() (events int64, err error)
}

// PerfCells lists the suite in its canonical order. Each cell builds a
// fresh environment with the same fixed seed its figure uses, so event
// counts are reproducible across runs and machines.
func PerfCells() []PerfCell {
	return []PerfCell{
		{Name: "fig9/Villars-SRAM/w8", Run: func() (int64, error) {
			Fig09Cell("Villars-SRAM", 8)
			return LastCellEvents(), nil
		}},
		{Name: "fig10/sram/wc/64B", Run: func() (int64, error) {
			Fig10Cell(pm.SRAMSpec, false, 64)
			return LastCellEvents(), nil
		}},
		{Name: "fig11/q32K/g16K", Run: func() (int64, error) {
			Fig11Cell(32<<10, 16<<10)
			return LastCellEvents(), nil
		}},
		{Name: "fig12/priority/offer0.60", Run: func() (int64, error) {
			Fig12Cell(sched.ConventionalPriority, 0.60)
			return LastCellEvents(), nil
		}},
		{Name: "fig13/400ns", Run: func() (int64, error) {
			Fig13Cell(400 * time.Nanosecond)
			return LastCellEvents(), nil
		}},
		{Name: fmt.Sprintf("chaos/seed%d", perfChaosSeed), Run: func() (int64, error) {
			sc := chaos.DefaultScenario(perfChaosSeed)
			sc.SimWorkers = engineWorkers
			r, err := chaos.Run(sc)
			if err != nil {
				return 0, err
			}
			if len(r.Violations) > 0 {
				return 0, fmt.Errorf("bench: chaos seed %d violated invariants: %v", perfChaosSeed, r.Violations)
			}
			return r.Events, nil
		}},
		// The /swN twins pin the engine explicitly (independent of
		// -workers): same multi-device topology, different executor
		// counts. Compare demands identical event counts across twins and
		// the wall-clock ratio is the parallel speedup.
		{Name: fmt.Sprintf("pargroup/d%d/sw1", pargroupDevices), Run: func() (int64, error) {
			return PargroupCell(pargroupDevices, 1), nil
		}},
		{Name: fmt.Sprintf("pargroup/d%d/sw8", pargroupDevices), Run: func() (int64, error) {
			return PargroupCell(pargroupDevices, 8), nil
		}},
		{Name: "pargroup/repl3/sw1", Run: func() (int64, error) {
			return PargroupReplCell(1), nil
		}},
		{Name: "pargroup/repl3/sw2", Run: func() (int64, error) {
			return PargroupReplCell(2), nil
		}},
	}
}
