package bench

import (
	"fmt"
	"time"

	"xssd/internal/core"
	"xssd/internal/nand"
	"xssd/internal/nvme"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/pm"
	"xssd/internal/sched"
	"xssd/internal/sim"
	"xssd/internal/villars"
	"xssd/internal/xapi"
)

// Ablations for the design choices DESIGN.md calls out.

// AblationPolicy sweeps all three destage scheduling policies at the
// paper's contention point (conventional 50% + fast 50%).
func AblationPolicy() *Table {
	t := &Table{
		Title:  "Ablation — destage scheduling policy at 50%+50% offered load",
		Header: []string{"policy", "conventional achieved", "fast achieved"},
	}
	for _, policy := range []sched.Policy{sched.Neutral, sched.DestagePriority, sched.ConventionalPriority} {
		conv, fast := Fig12Cell(policy, 0.50)
		t.Add(policy.String(), fmt.Sprintf("%.0f%%", conv*100), fmt.Sprintf("%.0f%%", fast*100))
	}
	return t
}

// AblationScheme compares the commit latency the database observes under
// the three replication schemes with two secondaries: lazy waits for local
// persistence only, eager for the slower of two replicas one hop away, and
// chain for the tail two hops away.
func AblationScheme() *Table {
	t := &Table{
		Title:  "Ablation — replication scheme vs XPwrite+XFsync latency (two secondaries)",
		Header: []string{"scheme", "p50 latency", "p75 latency"},
	}
	for _, scheme := range []core.ReplicationScheme{core.Lazy, core.Chain, core.Eager} {
		c, err := ablationSchemeCell(scheme)
		if err != nil {
			t.Add(scheme.String(), err.Error(), "")
			continue
		}
		t.Add(scheme.String(), fmtDur(c.P50), fmtDur(c.P75))
	}
	return t
}

// ablationSchemeCell wires a primary and two secondaries the way every
// replicated harness does, through the stack builder's replication setup,
// and times XPwrite+XFsync.
func ablationSchemeCell(scheme core.ReplicationScheme) (obs.Candlestick, error) {
	c := newReplCell(5, engineWorkers, scheme, func(env *sim.Env, name string) *villars.Device {
		return fig13Device(env, name, 400*time.Nanosecond)
	}, "prim", "sec1", "sec2")
	defer c.Close()
	var (
		sample obs.Sample
		err    error
	)
	c.Host.Go("writer", func(p *sim.Proc) {
		// Setup drives the secondaries' queues directly, which is legal
		// while the group is still inline.
		if err = c.Boot(p); err != nil {
			return
		}
		c.Parallelize()
		l := xapi.Open(p, c.Primary, xapi.Options{})
		buf := make([]byte, 256)
		for {
			t0 := p.Now()
			l.XPwrite(p, buf)
			if err := l.XFsync(p); err != nil {
				return
			}
			sample.Add(p.Now() - t0)
			p.Sleep(2 * time.Microsecond)
		}
	})
	c.RunUntil(c.Now() + 4*time.Millisecond)
	capture(c.Group, "ablation-scheme/"+scheme.String())
	return sample.Candlestick(), err
}

// AblationCredit compares the two credit-check strategies of §5.1: the
// paper's winner (use all credits, then re-read) against re-reading the
// counter before every chunk.
func AblationCredit() *Table {
	t := &Table{
		Title:  "Ablation — XPwrite credit-check strategy (§5.1)",
		Header: []string{"strategy", "throughput MB/s", "credit reads / MB"},
	}
	for _, strat := range []xapi.CreditStrategy{xapi.UseAllCredits, xapi.CheckEveryChunk} {
		name := "use-all-credits"
		if strat == xapi.CheckEveryChunk {
			name = "check-every-chunk"
		}
		mbps, readsPerMB := ablationCreditCell(strat, name)
		t.Add(name, fmt.Sprintf("%.0f", mbps), fmt.Sprintf("%.0f", readsPerMB))
	}
	return t
}

func ablationCreditCell(strat xapi.CreditStrategy, name string) (mbps, readsPerMB float64) {
	c := newCellSim(1)
	defer c.Close()
	dev := fig10Device(c.Host, "fig10", pm.SRAMSpec)
	var reads int64
	c.Host.Go("writer", func(p *sim.Proc) {
		l := xapi.Open(p, dev, xapi.Options{Strategy: strat})
		buf := make([]byte, 4096)
		for {
			l.XPwrite(p, buf)
			reads = l.CreditReads()
		}
	})
	c.Parallelize()
	c.RunUntil(20 * time.Millisecond)
	capture(c.Group, "ablation-credit/"+name)
	bytes := float64(dev.CMB().Ring().Frontier())
	mb := bytes / 1e6
	if mb == 0 {
		return 0, 0
	}
	return mb / 0.020, float64(reads) / mb
}

// AblationBacking sweeps the CMB backing class for a fixed log workload,
// adding the host-NVDIMM and conventional-NVMe reference points — the
// microbenchmark behind Fig 9's ordering.
func AblationBacking() *Table {
	t := &Table{
		Title:  "Ablation — 16 KB log-flush latency per backing class",
		Header: []string{"path", "p50 flush latency"},
	}
	// Villars fast side per backing.
	for _, backing := range []pm.Spec{pm.SRAMSpec, pm.DRAMSpec} {
		p50 := ablationBackingCell(fmt.Sprintf("villars-%s", backing.Class), func(env *sim.Env) flushOpener {
			dev := fig10Device(env, "fig10", backing)
			return func(p *sim.Proc) func() bool {
				l := xapi.Open(p, dev, xapi.Options{})
				buf := make([]byte, 16<<10)
				return func() bool {
					l.XPwrite(p, buf)
					return l.XFsync(p) == nil
				}
			}
		})
		t.Add(fmt.Sprintf("Villars-%s", backing.Class), fmtDur(p50))
	}
	// Host NVDIMM stores.
	p50 := ablationBackingCell("nvdimm", func(env *sim.Env) flushOpener {
		bank := pm.NewBank(env, pm.NVDIMMSpec)
		return func(p *sim.Proc) func() bool {
			return func() bool {
				bank.Write(p, 16<<10)
				return true
			}
		}
	})
	t.Add("Memory (NVDIMM)", fmtDur(p50))
	// Conventional NVMe write.
	p50 = ablationBackingCell("nvme", func(env *sim.Env) flushOpener {
		hostMem := pcie.NewHostMemory(1 << 20)
		cfg := villars.DefaultConfig("abl")
		cfg.Geometry = nand.Geometry{Channels: 8, WaysPerChan: 8, BlocksPerDie: 64, PagesPerBlock: 64, PageSize: 16 << 10}
		dev := villars.New(env, cfg, hostMem)
		return func(p *sim.Proc) func() bool {
			lba := int64(0)
			return func() bool {
				c := dev.HostDriver().Submit(p, nvmeWrite(lba, 1, 0))
				lba++
				return c.Status == 0
			}
		}
	})
	t.Add("NVMe (conventional)", fmtDur(p50))
	return t
}

// flushOpener opens one backing path on the writer's process and returns
// its 16 KB flush, which reports whether the flush succeeded.
type flushOpener func(p *sim.Proc) (flush func() (ok bool))

// ablationBackingCell times a flush every 50 µs for 20 ms of virtual time
// on a fresh single-member cell and returns the p50. mk builds the path
// on the cell's Env before the writer starts; the writer stops at the
// first failed flush.
func ablationBackingCell(cell string, mk func(env *sim.Env) flushOpener) time.Duration {
	c := newCellSim(1)
	defer c.Close()
	open := mk(c.Host)
	var sample obs.Sample
	c.Host.Go("writer", func(p *sim.Proc) {
		flush := open(p)
		for {
			t0 := p.Now()
			if !flush() {
				return
			}
			sample.Add(p.Now() - t0)
			p.Sleep(50 * time.Microsecond)
		}
	})
	c.Parallelize()
	c.RunUntil(20 * time.Millisecond)
	capture(c.Group, "ablation-backing/"+cell)
	return sample.Candlestick().P50
}

// nvmeWrite builds a one-block NVMe write command.
func nvmeWrite(lba int64, blocks int, prp int64) nvme.Command {
	return nvme.Command{Opcode: nvme.OpWrite, LBA: lba, Blocks: blocks, PRP: prp}
}
