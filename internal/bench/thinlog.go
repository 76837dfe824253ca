package bench

import (
	"time"

	"xssd/internal/db"
	"xssd/internal/nand"
	"xssd/internal/pcie"
	"xssd/internal/sim"
	"xssd/internal/tpcc"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// The destage/thinlog cell puts the NAND bill of a thin log behind the
// compare gate: one TPC-C terminal committing through 4 KB / 500 µs WAL
// groups persists about one record — a dozen 64-byte lines — every half
// millisecond, far less than a flash page per latency bound, so every page
// the Destage module writes is a padded one and the page count is the
// padding policy's bill. NAND timing is the default (600 µs program), the
// shape in which a page is still in flight when the next lines arrive.

const (
	thinLogWindow = 250 * time.Millisecond
	thinLogBound  = time.Millisecond
)

// ThinLogCell runs the cell and reports the events it dispatched and the
// flash pages its device programmed.
func ThinLogCell() Measurement {
	c := newCellSim(42)
	defer c.Close()
	env := c.env
	cfg := villars.DefaultConfig("thinlog")
	cfg.Geometry = nand.Geometry{Channels: 4, WaysPerChan: 4, BlocksPerDie: 64, PagesPerBlock: 64, PageSize: 4 << 10}
	cfg.DestageLatencyBound = thinLogBound
	dev := villars.New(env, cfg, pcie.NewHostMemory(1<<20))

	var log *wal.Log
	ready := make(chan struct{}, 1)
	env.Go("open-sink", func(p *sim.Proc) {
		log = wal.NewLog(env, wal.NewVillarsSink(p, dev, "thinlog"),
			wal.Config{GroupBytes: 4 << 10, GroupTimeout: 500 * time.Microsecond})
		ready <- struct{}{}
	})
	c.RunUntil(time.Microsecond)
	<-ready

	eng := db.New(env, log)
	tcfg := tpcc.DefaultConfig()
	tpcc.Load(eng, tcfg, 7)
	client := tpcc.NewClient(eng, tcfg, 100, 1)
	env.Go("terminal", func(p *sim.Proc) {
		for {
			p.Sleep(fig9Compute)
			_, _ = client.RunMix(p) // conflicts retry inside the client
		}
	})
	c.Parallelize()
	c.RunUntil(thinLogWindow)
	c.capture("destage/thinlog")
	return Measurement{Events: c.Events(), NandPages: dev.Stats().NAND.Programs}
}
