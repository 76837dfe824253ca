package bench

import (
	"fmt"
	"time"

	"xssd/internal/chaos"
	"xssd/internal/obs"
	"xssd/internal/pm"
	"xssd/internal/sched"
)

// The timed suite (xbench -suite): the perf cells, then the latency cells,
// then the shard cells. Each returns what it measured in virtual time; the
// harness in cmd/xbench times them against the wall clock (this package
// stays virtual-time only) and writes one results file, checked in as
// BENCH.json.

// perfChaosSeed picks a chaos scenario with replication enabled so the
// timed cell exercises the transport and fault paths, not just local
// logging. Seed 7 draws two secondaries under DefaultScenario.
const perfChaosSeed = 7

// Cell is one timed unit of the suite. Run executes the cell to completion.
type Cell struct {
	Name string
	Run  func() (Measurement, error)
}

// Measurement is what a cell reports, every field virtual-time and so
// exact: the simulator events it dispatched (the determinism anchor of
// every cell), and where the suite gates them a latency digest (the lat/
// cells), a committed-transaction count (the shard/ cells and the paged
// cell), the flash pages programmed (the destage cell) and the pages a
// pager read from its device (the paged cell).
type Measurement struct {
	Events    int64
	Lat       obs.Summary
	Commits   int64
	NandPages int64
	PageReads int64
}

// SuiteCells lists the suite in its canonical order, the order of
// BENCH.json's rows: the perf cells, the latency cells and the shard cells.
// Each cell builds a fresh environment with a fixed seed, so everything it
// measures in virtual time repeats across runs and machines.
func SuiteCells() []Cell {
	cells := perfCells()
	cells = append(cells, latencyCells()...)
	return append(cells, shardCells()...)
}

// perfCells: one representative cell per figure, one chaos seed, the
// destage and paged cells, and the pargroup executor twins.
func perfCells() []Cell {
	return []Cell{
		{Name: "fig9/Villars-SRAM/w8", Run: func() (Measurement, error) {
			Fig09Cell("Villars-SRAM", 8)
			return Measurement{Events: LastCellEvents()}, nil
		}},
		{Name: "fig10/sram/wc/64B", Run: func() (Measurement, error) {
			Fig10Cell(pm.SRAMSpec, false, 64)
			return Measurement{Events: LastCellEvents()}, nil
		}},
		{Name: "fig11/q32K/g16K", Run: func() (Measurement, error) {
			Fig11Cell(32<<10, 16<<10)
			return Measurement{Events: LastCellEvents()}, nil
		}},
		{Name: "fig12/priority/offer0.60", Run: func() (Measurement, error) {
			Fig12Cell(sched.ConventionalPriority, 0.60)
			return Measurement{Events: LastCellEvents()}, nil
		}},
		{Name: "fig13/400ns", Run: func() (Measurement, error) {
			Fig13Cell(400 * time.Nanosecond)
			return Measurement{Events: LastCellEvents()}, nil
		}},
		{Name: fmt.Sprintf("chaos/seed%d", perfChaosSeed), Run: func() (Measurement, error) {
			sc := chaos.DefaultScenario(perfChaosSeed)
			sc.SimWorkers = engineWorkers
			r, err := chaos.Run(sc)
			if err != nil {
				return Measurement{}, err
			}
			if len(r.Violations) > 0 {
				return Measurement{}, fmt.Errorf("bench: chaos seed %d violated invariants: %v", perfChaosSeed, r.Violations)
			}
			return Measurement{Events: r.Events}, nil
		}},
		{Name: "destage/thinlog", Run: func() (Measurement, error) {
			return ThinLogCell(), nil
		}},
		{Name: "destage/thinlog/reader", Run: func() (Measurement, error) {
			return ThinLogReaderCell(), nil
		}},
		{Name: "paged/tpcc", Run: func() (Measurement, error) {
			m, _, err := pagedTPCCCell()
			return m, err
		}},
		// The /swN twins pin the engine explicitly (independent of
		// -workers): same multi-device topology, different executor
		// counts. Compare demands identical event counts across twins and
		// the wall-clock ratio is the parallel speedup.
		{Name: fmt.Sprintf("pargroup/d%d/sw1", pargroupDevices), Run: func() (Measurement, error) {
			return Measurement{Events: PargroupCell(pargroupDevices, 1)}, nil
		}},
		{Name: fmt.Sprintf("pargroup/d%d/sw8", pargroupDevices), Run: func() (Measurement, error) {
			return Measurement{Events: PargroupCell(pargroupDevices, 8)}, nil
		}},
		{Name: "pargroup/repl3/sw1", Run: func() (Measurement, error) {
			return Measurement{Events: PargroupReplCell(1)}, nil
		}},
		{Name: "pargroup/repl3/sw2", Run: func() (Measurement, error) {
			return Measurement{Events: PargroupReplCell(2)}, nil
		}},
	}
}
