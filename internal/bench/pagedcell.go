package bench

import (
	"fmt"
	"time"

	"xssd/internal/db"
	"xssd/internal/nand"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/pm"
	"xssd/internal/sim"
	"xssd/internal/stack"
	"xssd/internal/tpcc"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// The paged/tpcc cell puts the paged deployment behind the compare gate:
// one device takes the log on its fast side and serves the tables' B+tree
// pages from its conventional side (DeviceStore), behind a buffer pool a
// quarter the size of the loaded tree, with a fuzzy checkpoint every 2 ms
// programming page images on the dies the misses read from. Four
// closed-loop TPC-C terminals commit synchronously. Beside its events the
// cell reports the commits it acknowledged and the pages its pager read
// from the device — the engine's read amplification, which is virtual and
// exact, so Compare holds both to equality.

const (
	pagedCellWindow    = 2 * time.Second // ≈ 1 s of wall
	pagedCellTerminals = 4
	pagedCellPool      = 85   // ≈ ¼ of the pages the load builds (TestPagedCellShape)
	pagedCellSlots     = 4096 // page ids × 2 shadow slots
	pagedCellHostMem   = 1 << 20
	pagedCellDev       = "paged"
)

// pagedTPCCCell runs the cell and reports the events it dispatched, the
// commits it acknowledged inside the window and the device page reads its
// pager issued; loaded is the page count of the tree the bulk load built,
// which pagedCellPool is sized against.
func pagedTPCCCell() (m Measurement, loaded int, err error) {
	dcfg := villars.DefaultConfig(pagedCellDev)
	dcfg.Backing = pm.SRAMSpec
	dcfg.Backing.Capacity = 2 << 20
	dcfg.Geometry = nand.Geometry{Channels: 4, WaysPerChan: 4, BlocksPerDie: 20, PagesPerBlock: 64, PageSize: 4 << 10}
	dcfg.QueueSize = 32 << 10
	tcfg := tpcc.DefaultConfig()
	c, err := newCell(stack.Config{
		Seed: 42,
		Device: func(env *sim.Env, _ int) *villars.Device {
			return villars.New(env, dcfg, pcie.NewHostMemory(pagedCellHostMem))
		},
		Sink:  "plog",
		WAL:   wal.Config{GroupBytes: 4 << 10, GroupTimeout: 50 * time.Microsecond},
		Paged: &stack.Paged{Slots: pagedCellSlots, Pool: pagedCellPool},
		Load:  func(eng *db.Engine) { tpcc.Load(eng, tcfg, 7) },
	})
	if err != nil {
		return Measurement{}, 0, fmt.Errorf("bench: paged/tpcc: %w", err)
	}
	defer c.Close()
	env, st := c.Host, c

	var (
		commits, failed int64
		bootErr         error
		booted          bool
	)
	env.Go("boot", func(p *sim.Proc) {
		defer func() { booted = true }()
		if bootErr = st.Boot(p); bootErr != nil {
			return
		}
		// Bulk-loaded pages are all dirty and cannot be evicted; the first
		// checkpoint builds the staged tables, writes every page out so the
		// pool cap holds from the first transaction on, and so counts the
		// loaded tree.
		if _, bootErr = st.Ckpt.RunOnce(p); bootErr != nil {
			return
		}
		loaded = int(obs.For(env).Counter(pagedCellDev + "/ckpt/pages_written").Value())
		env.Go("ckpt", st.Ckpt.Run)
		for w := 0; w < pagedCellTerminals; w++ {
			client := tpcc.NewClient(st.Engine, tcfg, int64(100+w), w%tcfg.Warehouses+1)
			env.Go(fmt.Sprintf("terminal-%d", w), func(p *sim.Proc) {
				for {
					p.Sleep(fig9Compute)
					if _, err := client.RunMix(p); err != nil { // conflicts retry inside the client
						failed++
						continue
					}
					commits++
				}
			})
		}
	})
	for i := 0; i < 100 && !booted; i++ {
		c.RunUntil(c.Now() + 10*time.Millisecond)
	}
	switch {
	case !booted:
		return Measurement{}, 0, fmt.Errorf("bench: paged/tpcc: load and first checkpoint did not finish in 1 s of virtual time")
	case bootErr != nil:
		return Measurement{}, 0, fmt.Errorf("bench: paged/tpcc bring-up: %w", bootErr)
	}
	c.Parallelize()
	c.RunUntil(c.Now() + pagedCellWindow)
	capture(c.Group, "paged/tpcc")
	if err := st.Ckpt.Err(); err != nil {
		return Measurement{}, 0, fmt.Errorf("bench: paged/tpcc: checkpoint manager stopped: %w", err)
	}
	if failed > 0 || st.Ckpt.Completed() < 2 {
		return Measurement{}, 0, fmt.Errorf("bench: paged/tpcc: %d transactions failed, %d checkpoints completed", failed, st.Ckpt.Completed())
	}
	return Measurement{
		Events:    c.Events(),
		Commits:   commits,
		PageReads: obs.For(env).Counter(pagedCellDev + "/pager/reads").Value(),
	}, loaded, nil
}
