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

// Fig 9 (§6.1): TPC-C transaction latency and throughput versus worker
// count, for five local-logging setups: No Log, Memory (host NVDIMM),
// Villars-SRAM, Villars-DRAM, and NVMe (the device's conventional side).
//
// Workers execute real TPC-C transactions against the in-memory engine
// with ERMIA-style pipelined commit: each transaction costs a fixed
// compute budget, appends its redo record, and is acknowledged by a
// wal.Pipeline at the instant group commit (16 KB groups) makes its LSN
// durable. Workers run ahead of durability by at most the log-buffer size.

// fig9 tuning constants.
const (
	fig9Compute    = 26 * time.Microsecond // per-txn CPU: at most 38.5 ktxn/s per worker, 308 at 8
	fig9Window     = 120 * time.Millisecond
	fig9Warmup     = 10 * time.Millisecond
	fig9MaxBacklog = 64 << 10 // ERMIA log buffer bound
)

// fig9Workers are the x-axis points.
var fig9Workers = []int{1, 2, 4, 8}

// fig9Setups are the series.
var fig9Setups = []string{"NoLog", "Memory", "Villars-SRAM", "Villars-DRAM", "NVMe"}

// fig9DeviceConfig builds the experiment's device: paper-scale NAND with a
// chosen CMB backing.
func fig9DeviceConfig(name string, backing pm.Spec) villars.Config {
	cfg := villars.DefaultConfig(name)
	cfg.Backing = backing
	// Enough ring depth for the destage pipeline to stream at the array's
	// program bandwidth (cf. the fig10 note on CMB capacity).
	if cfg.Backing.Capacity < 2<<20 {
		cfg.Backing.Capacity = 2 << 20
	}
	cfg.Geometry = nand.Geometry{Channels: 8, WaysPerChan: 8, BlocksPerDie: 64, PagesPerBlock: 64, PageSize: 16 << 10}
	cfg.QueueSize = 32 << 10
	return cfg
}

// fig9DRAMBacking models the Cosmos+ DDR3 under heavy data-buffer sharing:
// the CMB drain competes with destage reads and conventional buffering on
// the same 2 GB/s controller, so its effective intake is a fraction of it.
var fig9DRAMBacking = pm.Spec{
	Class: pm.DRAM, Capacity: 128 << 20, Bandwidth: 2e9,
	Latency: 120 * time.Nanosecond, SharedFrac: 0.7,
}

// Fig09Cell runs one (setup, workers) cell and reports mean latency and
// committed-transaction throughput.
func Fig09Cell(setup string, workers int) (lat time.Duration, ktps float64) {
	wcfg := wal.Config{GroupBytes: 16 << 10, GroupTimeout: 10 * time.Millisecond}
	scfg := stack.Config{Seed: 42}
	if setup == "Villars-SRAM" || setup == "Villars-DRAM" {
		backing := pm.SRAMSpec
		if setup == "Villars-DRAM" {
			backing = fig9DRAMBacking
		}
		scfg.Device = func(env *sim.Env, _ int) *villars.Device {
			return villars.New(env, fig9DeviceConfig("fig9", backing), pcie.NewHostMemory(1<<20))
		}
		scfg.Sink, scfg.WAL = setup, wcfg
	}
	c, _ := newCell(scfg) // a stack of one device and its log always validates
	defer c.Close()
	env := c.Host

	var log *wal.Log
	switch setup {
	case "Memory":
		log = wal.NewLog(env, wal.NewMemorySink(env, pm.NVDIMMSpec), wcfg)
	case "Villars-SRAM", "Villars-DRAM":
		_ = c.BootInline() // a sink and a log: nothing to fail
		log = c.Log
	case "NVMe":
		hostMem := pcie.NewHostMemory(1 << 20)
		dev := villars.New(env, fig9DeviceConfig("fig9", pm.SRAMSpec), hostMem)
		log = wal.NewLog(env, wal.NewNVMeSink(dev, hostMem, 1<<19, 0, dev.FTL().LogicalPages()/2), wcfg)
	}

	eng := c.Engine // a Villars setup's engine, booted with its log
	if eng == nil {
		eng = db.New(env, log)
	}
	cfg := tpcc.DefaultConfig()
	tpcc.Load(eng, cfg, 7)

	// sample holds the commits that started after the warm-up and were
	// acknowledged inside the window: its mean is the latency and its
	// count over the measured span the throughput.
	var sample obs.Sample
	var pl *wal.Pipeline
	if log != nil {
		pl = wal.NewPipeline(log, func(start, durable time.Duration) {
			if start >= fig9Warmup {
				sample.Add(durable - start)
			}
		})
	}

	for w := 0; w < workers; w++ {
		w := w
		env.Go(fmt.Sprintf("worker-%d", w), func(p *sim.Proc) {
			client := tpcc.NewClient(eng, cfg, int64(100+w), w%cfg.Warehouses+1)
			for {
				if log != nil {
					log.WaitBacklog(p, fig9MaxBacklog)
				}
				start := p.Now()
				p.Sleep(fig9Compute)
				lsn, err := client.RunMixAsync(p) // conflicts retry inside the client
				if err != nil {
					continue
				}
				if log == nil || lsn == 0 {
					if start >= fig9Warmup {
						sample.Add(p.Now() - start)
					}
					continue
				}
				pl.Submit(lsn, start)
			}
		})
	}
	c.Parallelize()
	c.RunUntil(fig9Window)
	capture(c.Group, fmt.Sprintf("fig9/%s/w%d", setup, workers))
	window := (fig9Window - fig9Warmup).Seconds()
	return sample.Mean(), float64(sample.N()) / window / 1000
}

// Fig09 regenerates the paper's Figure 9.
func Fig09() *Table {
	t := &Table{
		Title:  "Fig 9 — TPC-C logging to local storage (latency / throughput vs workers)",
		Note:   "ERMIA-style pipelined commit, 16 KB group commit, 16 warehouses (scaled rows)",
		Header: []string{"setup", "workers", "avg latency", "ktxn/s"},
	}
	for _, setup := range fig9Setups {
		for _, w := range fig9Workers {
			lat, ktps := Fig09Cell(setup, w)
			t.Add(setup, fmt.Sprintf("%d", w), fmtDur(lat), fmt.Sprintf("%.1f", ktps))
		}
	}
	return t
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/1e3)
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
