package bench

import (
	"fmt"
	"time"

	"xssd/internal/db"
	"xssd/internal/nand"
	"xssd/internal/nvme"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/pm"
	"xssd/internal/sim"
	"xssd/internal/tpcc"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// The latency suite (xbench -suite latency): where the perf suite asks
// "how many events per second", this suite asks "where is the tail". Two
// cell families sweep the multi-queue host interface:
//
//   - lat/nvme/qP/dD/cK: P queue pairs, D async writes in flight per
//     queue, completion interrupts coalesced K-at-a-time (c1 = off). The
//     reported histogram is the driver's submit→complete series merged
//     across queues.
//   - lat/tpcc/pipeD: TPC-C terminals committing through a depth-D
//     wal.Pipeline on a Villars-SRAM log device; the histogram is the
//     pipeline's submit→durable series merged across terminals.
//
// Everything runs on virtual time, so every quantile is deterministic:
// the compare gate demands exact equality against BENCH_PR8.json, the
// same way it demands exact event counts. The /swN twins pin the
// parallel engine at 1 and 8 workers over the same topology — their
// event counts and quantiles must match bit-for-bit.

// latency suite tuning constants.
const (
	latWindow     = 40 * time.Millisecond // raw NVMe sweep window
	latTPCCWindow = 60 * time.Millisecond // TPC-C pipeline window
	latTPCCJobs   = 4                     // TPC-C terminals
	latSeed       = 42
)

// LatencyCells lists the suite in canonical order: a queue-count sweep,
// an in-flight-depth sweep, a coalescing ablation, the serial/parallel
// twins, and the TPC-C pipelined-commit pair.
func LatencyCells() []Cell {
	cells := []Cell{}
	add := func(name string, run func() (Measurement, error)) {
		cells = append(cells, Cell{Name: name, Run: run})
	}
	for _, pairs := range []int{1, 4, 8} {
		pairs := pairs
		add(fmt.Sprintf("lat/nvme/q%d/d8/c1", pairs), func() (Measurement, error) {
			return LatencyNVMeCell(pairs, 8, 1), nil
		})
	}
	for _, depth := range []int{1, 32} {
		depth := depth
		add(fmt.Sprintf("lat/nvme/q4/d%d/c1", depth), func() (Measurement, error) {
			return LatencyNVMeCell(4, depth, 1), nil
		})
	}
	add("lat/nvme/q4/d8/c8", func() (Measurement, error) {
		return LatencyNVMeCell(4, 8, 8), nil
	})
	for _, sw := range []int{1, 8} {
		sw := sw
		add(fmt.Sprintf("lat/nvme/q4/d8/c1/sw%d", sw), func() (Measurement, error) {
			return latencyNVMeCellPinned(4, 8, 1, sw), nil
		})
	}
	for _, depth := range []int{1, 16} {
		depth := depth
		add(fmt.Sprintf("lat/tpcc/pipe%d", depth), func() (Measurement, error) {
			return LatencyTPCCCell(depth), nil
		})
	}
	return cells
}

// latencyDeviceConfig builds the sweep's device: a small 4×4 array of
// 4 KB pages so per-command costs, not array parallelism, dominate the
// tail, with the multi-queue host interface under test.
func latencyDeviceConfig(pairs, coalesce int) villars.Config {
	cfg := villars.DefaultConfig("lat")
	cfg.Geometry = nand.Geometry{Channels: 4, WaysPerChan: 4, BlocksPerDie: 64, PagesPerBlock: 64, PageSize: 4 << 10}
	cfg.HostQueues = pairs
	cfg.CoalesceOps = coalesce // nvme bounds a coalesced batch at 8 µs
	return cfg
}

// LatencyNVMeCell drives one submitter process per queue pair, each
// keeping depth one-block writes in flight on its own queue through the
// async driver surface, and digests the per-queue submit→complete
// histograms.
func LatencyNVMeCell(pairs, depth, coalesce int) Measurement {
	c := newCellSim(latSeed)
	defer c.Close()
	env := c.env
	hostMem := pcie.NewHostMemory(1 << 20)
	dev := villars.New(env, latencyDeviceConfig(pairs, coalesce), hostMem)
	drv := dev.HostDriver()
	drv.Observe(obs.For(env).Scope("lat/nvme"))
	bs := int64(4 << 10)

	// Each queue owns a private LBA stripe above the destage ring, wrapped
	// so the cell's footprint stays bounded. Write sizes cycle 1–4 blocks
	// per (queue, index) — deterministic variance, so the histogram has an
	// actual tail instead of one repeated service time.
	base := dev.FTL().LogicalPages() / 2
	stripe := int64(1024)
	for q := 0; q < pairs; q++ {
		q := q
		env.Go(fmt.Sprintf("lat-submit-%d", q), func(p *sim.Proc) {
			var window []nvme.Token
			var off int64
			for i := int64(0); ; i++ {
				blocks := 1 + int((i+int64(q*3))%4)
				if i%64 == 0 {
					// A rare large write: the deterministic tail event
					// that separates p999 from p50.
					blocks = 16
				}
				lba := base + int64(q)*stripe + off
				off = (off + int64(blocks)) % (stripe - 16)
				tok := drv.SubmitAsync(q, nvme.Command{
					Opcode: nvme.OpWrite, LBA: lba, Blocks: blocks, PRP: int64(q) * 16 * bs,
				})
				window = append(window, tok)
				if len(window) >= depth {
					drv.Wait(p, window[0])
					window = window[1:]
				}
				if i%12 == 11 {
					// Periodic think time long enough to drain the queue:
					// the next few submissions see an idle device while the
					// rest see full queueing, spreading the histogram over
					// several buckets instead of one saturated mode.
					for _, t := range window {
						drv.Wait(p, t)
					}
					window = window[:0]
					p.Sleep(150 * time.Microsecond)
				}
			}
		})
	}
	c.Parallelize()
	c.RunUntil(latWindow)
	c.capture(fmt.Sprintf("lat/nvme/q%d/d%d/c%d", pairs, depth, coalesce))

	hists := make([]*obs.Histogram, pairs)
	for q := 0; q < pairs; q++ {
		hists[q] = drv.Latency(q)
	}
	return Measurement{Events: c.Events(), Lat: obs.SummaryOf(hists...)}
}

// latencyNVMeCellPinned runs the cell with the engine pinned to sw
// quantum executors regardless of the -workers flag — the /swN twins the
// compare gate holds to bit-identical results.
func latencyNVMeCellPinned(pairs, depth, coalesce, sw int) Measurement {
	prev := engineWorkers
	SetEngineWorkers(sw)
	defer SetEngineWorkers(prev)
	return LatencyNVMeCell(pairs, depth, coalesce)
}

// LatencyTPCCCell runs TPC-C terminals against a Villars-SRAM log device,
// each feeding the LSNs RunMixAsync returns into its own depth-pipeDepth
// wal.Pipeline, and digests the pipelines' submit→durable histograms.
func LatencyTPCCCell(pipeDepth int) Measurement {
	c := newCellSim(latSeed)
	defer c.Close()
	env := c.env
	hostMem := pcie.NewHostMemory(1 << 20)
	dev := villars.New(env, fig9DeviceConfig("lattpcc", pm.SRAMSpec), hostMem)

	var log *wal.Log
	ready := make(chan struct{}, 1)
	env.Go("open-sink", func(p *sim.Proc) {
		log = wal.NewLog(env, wal.NewVillarsSink(p, dev, "lattpcc"),
			wal.Config{GroupBytes: 16 << 10, GroupTimeout: 10 * time.Millisecond})
		ready <- struct{}{}
	})
	c.RunUntil(time.Microsecond)
	<-ready

	eng := db.New(env, log)
	cfg := tpcc.DefaultConfig()
	tpcc.Load(eng, cfg, 7)

	hists := make([]*obs.Histogram, latTPCCJobs)
	sc := obs.For(env).Scope("lattpcc/pipe")
	for w := 0; w < latTPCCJobs; w++ {
		client := tpcc.NewClient(eng, cfg, int64(100+w), w%cfg.Warehouses+1)
		pl := wal.NewPipeline(log, pipeDepth, sc.Sub(fmt.Sprintf("w%d", w)))
		hists[w] = pl.Latency()
		env.Go(fmt.Sprintf("lat-term-%d", w), func(p *sim.Proc) {
			for {
				p.Sleep(fig9Compute)
				if lsn, err := client.RunMixAsync(p); err == nil { // conflicts retry inside the client
					pl.Submit(p, lsn)
				}
			}
		})
	}
	c.Parallelize()
	c.RunUntil(latTPCCWindow)
	c.capture(fmt.Sprintf("lat/tpcc/pipe%d", pipeDepth))

	return Measurement{Events: c.Events(), Lat: obs.SummaryOf(hists...)}
}
