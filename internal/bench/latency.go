package bench

import (
	"fmt"
	"time"

	"xssd/internal/db"
	"xssd/internal/fifo"
	"xssd/internal/nand"
	"xssd/internal/nvme"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/pm"
	"xssd/internal/sim"
	"xssd/internal/stack"
	"xssd/internal/tpcc"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// The latency cells of the suite: where the perf cells ask "how many
// events per second", these ask "where is the tail". Two cell families
// sweep the multi-queue host interface:
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
// the compare gate demands exact equality against BENCH.json, the same
// way it demands exact event counts. Each cell builds one device on one
// group member, so it runs the serial runner at any executor count.

// Latency cell tuning constants.
const (
	latWindow     = 40 * time.Millisecond // raw NVMe sweep window
	latTPCCWindow = 60 * time.Millisecond // TPC-C pipeline window
	latTPCCJobs   = 4                     // TPC-C terminals
	latSeed       = 42
)

// latencyCells lists the latency cells in canonical order: a queue-count
// sweep, an in-flight-depth sweep, a coalescing ablation, and the TPC-C
// pipelined-commit pair.
func latencyCells() []Cell {
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
	env := c.Host
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
			var window fifo.Queue[nvme.Token]
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
				window.Push(tok)
				if window.Len() >= depth {
					oldest, _ := window.Pop()
					drv.Wait(p, oldest)
				}
				if i%12 == 11 {
					// Periodic think time long enough to drain the queue:
					// the next few submissions see an idle device while the
					// rest see full queueing, spreading the histogram over
					// several buckets instead of one saturated mode.
					for t, ok := window.Pop(); ok; t, ok = window.Pop() {
						drv.Wait(p, t)
					}
					p.Sleep(150 * time.Microsecond)
				}
			}
		})
	}
	c.Parallelize()
	c.RunUntil(latWindow)
	capture(c.Group, fmt.Sprintf("lat/nvme/q%d/d%d/c%d", pairs, depth, coalesce))

	hists := make([]*obs.Histogram, pairs)
	for q := 0; q < pairs; q++ {
		hists[q] = drv.Latency(q)
	}
	return Measurement{Events: c.Events(), Lat: obs.SummaryOf(hists...)}
}

// LatencyTPCCCell runs TPC-C terminals against a Villars-SRAM log device,
// each feeding the LSNs RunMixAsync returns into its own depth-pipeDepth
// wal.Pipeline, and digests the pipelines' submit→durable histograms.
func LatencyTPCCCell(pipeDepth int) Measurement {
	cfg := tpcc.DefaultConfig()
	c, _ := newCell(stack.Config{ // a stack of one device and its log always validates
		Seed: latSeed,
		Device: func(env *sim.Env, _ int) *villars.Device {
			return villars.New(env, fig9DeviceConfig("lattpcc", pm.SRAMSpec), pcie.NewHostMemory(1<<20))
		},
		Sink: "lattpcc",
		WAL:  wal.Config{GroupBytes: 16 << 10, GroupTimeout: 10 * time.Millisecond},
		Load: func(eng *db.Engine) { tpcc.Load(eng, cfg, 7) },
	})
	defer c.Close()
	env := c.Host
	_ = c.BootInline() // a sink, a log and the load: nothing to fail
	eng, log := c.Engine, c.Log

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
	capture(c.Group, fmt.Sprintf("lat/tpcc/pipe%d", pipeDepth))

	return Measurement{Events: c.Events(), Lat: obs.SummaryOf(hists...)}
}
