package bench

import (
	"fmt"
	"time"

	"xssd/internal/btree"
	"xssd/internal/ckpt"
	"xssd/internal/db"
	"xssd/internal/nand"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/pm"
	"xssd/internal/sim"
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
	pagedCellPool      = 140  // ≈ ¼ of the pages the load leaves (TestPagedCellShape)
	pagedCellSlots     = 4096 // page ids × 2 shadow slots
	pagedCellHostMem   = 1 << 20
	pagedCellCkpt      = 2 * time.Millisecond
	pagedCellDev       = "paged"
)

// pagedTPCCCell runs the cell and reports the events it dispatched, the
// commits it acknowledged inside the window and the device page reads its
// pager issued; loaded is the page count the bulk load left resident, which
// pagedCellPool is sized against.
func pagedTPCCCell() (m Measurement, loaded int, err error) {
	c := newCellSim(42)
	defer c.Close()
	env := c.env
	cfg := villars.DefaultConfig(pagedCellDev)
	cfg.Backing = pm.SRAMSpec
	cfg.Backing.Capacity = 2 << 20
	cfg.CMBSize = cfg.Backing.Capacity
	cfg.Geometry = nand.Geometry{Channels: 4, WaysPerChan: 4, BlocksPerDie: 20, PagesPerBlock: 64, PageSize: 4 << 10}
	cfg.QueueSize = 32 << 10
	dev := villars.New(env, cfg, pcie.NewHostMemory(pagedCellHostMem))

	var (
		mgr             *ckpt.Manager
		commits, failed int64
		bootErr         error
		booted          bool
	)
	reg := obs.For(env)
	tcfg := tpcc.DefaultConfig()
	env.Go("boot", func(p *sim.Proc) {
		defer func() { booted = true }()
		log := wal.NewLog(env, wal.NewVillarsSink(p, dev, "plog"),
			wal.Config{GroupBytes: 4 << 10, GroupTimeout: 50 * time.Microsecond})
		var base int64
		if base, bootErr = dev.AllocLBARange(pagedCellSlots); bootErr != nil {
			return
		}
		scratch := int64(pagedCellHostMem) - btree.DeviceScratchSize(dev.BlockSize())
		pager := btree.NewPager(btree.NewDeviceStore(dev, base, pagedCellSlots, scratch),
			btree.Config{PoolPages: pagedCellPool, Scope: reg.Scope(pagedCellDev + "/pager")})
		eng := db.NewPaged(env, log, pager)
		mgr = ckpt.NewManager(eng, log, ckpt.Config{Interval: pagedCellCkpt, Scope: reg.Scope(pagedCellDev + "/ckpt")})
		tpcc.Load(eng, tcfg, 7)
		loaded = pager.Resident()
		// Bulk-loaded pages are all dirty and cannot be evicted; the first
		// checkpoint writes them out so the pool cap holds from the first
		// transaction on.
		if _, bootErr = mgr.RunOnce(p); bootErr != nil {
			return
		}
		env.Go("ckpt", mgr.Run)
		for w := 0; w < pagedCellTerminals; w++ {
			client := tpcc.NewClient(eng, tcfg, int64(100+w), w%tcfg.Warehouses+1)
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
	c.capture("paged/tpcc")
	if failed > 0 || mgr.Completed() < 2 {
		return Measurement{}, 0, fmt.Errorf("bench: paged/tpcc: %d transactions failed, %d checkpoints completed", failed, mgr.Completed())
	}
	return Measurement{
		Events:    c.Events(),
		Commits:   commits,
		PageReads: reg.Counter(pagedCellDev + "/pager/reads").Value(),
	}, loaded, nil
}
