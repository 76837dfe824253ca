package bench

import (
	"fmt"
	"time"

	"xssd/internal/nand"
	"xssd/internal/pcie"
	"xssd/internal/pm"
	"xssd/internal/sched"
	"xssd/internal/sim"
	"xssd/internal/villars"
	"xssd/internal/xapi"
)

// Fig 12 (§6.4): opportunistic destaging. A conventional workload sized at
// 50% of the array's program bandwidth shares the device with a fast-side
// workload swept from 30% to 60%. Under Neutral scheduling the two
// interfere past device capacity; under Conventional Priority the
// conventional stream is preserved and the destage stream fills the gaps.

var fig12FastOffers = []float64{0.30, 0.40, 0.50, 0.60}

const (
	fig12ConvOffer = 0.50
	fig12Window    = 400 * time.Millisecond
	fig12Writers   = 64 // conventional-side parallel writers (enough to fill the offered rate at TProg latency)
)

func fig12Device(env *sim.Env, policy sched.Policy) *villars.Device {
	cfg := villars.DefaultConfig("fig12")
	cfg.Backing = pm.DRAMSpec  // large ring to absorb destage backlogs
	cfg.Backing.SharedFrac = 0 // isolate the effect to the scheduler
	cfg.Policy = policy
	cfg.Geometry = nand.Geometry{Channels: 8, WaysPerChan: 8, BlocksPerDie: 256, PagesPerBlock: 64, PageSize: 16 << 10}
	cfg.QueueSize = 64 << 10
	cfg.DestageLBAs = 4096
	return villars.New(env, cfg, pcie.NewHostMemory(1<<21))
}

// Fig12Cell returns achieved (conventional, fast) throughput as fractions
// of the array program bandwidth.
func Fig12Cell(policy sched.Policy, fastOffer float64) (conv, fast float64) {
	c := newCellSim(3)
	defer c.Close()
	env := c.env
	dev := fig12Device(env, policy)
	geo := dev.Array().Geometry()
	progBW := geo.ProgramBandwidth(dev.Array().Timing())
	pageSize := geo.PageSize

	// Conventional load: parallel writers against the FTL's conventional
	// class, jointly paced at fig12ConvOffer of the program bandwidth,
	// placed in the LBA range above the destage ring.
	interval := time.Duration(float64(pageSize) / (fig12ConvOffer * progBW) * 1e9 * fig12Writers)
	page := make([]byte, pageSize)
	for w := 0; w < fig12Writers; w++ {
		w := w
		env.Go("conv-writer", func(p *sim.Proc) {
			lba := int64(8192 + w)
			p.Sleep(time.Duration(w) * interval / fig12Writers) // stagger
			for {
				t0 := p.Now()
				if err := dev.FTL().Write(p, lba, page, sched.Conventional); err != nil {
					return
				}
				lba += fig12Writers
				if wait := interval - (p.Now() - t0); wait > 0 {
					p.Sleep(wait)
				}
			}
		})
	}

	// Fast load: one CMB writer paced at fastOffer of the program
	// bandwidth; the destage module turns it into Destage-class programs.
	env.Go("fast-writer", func(p *sim.Proc) {
		l := xapi.Open(p, dev, xapi.Options{})
		chunk := make([]byte, 8<<10)
		chunkInterval := time.Duration(float64(len(chunk)) / (fastOffer * progBW) * 1e9)
		for {
			t0 := p.Now()
			l.XPwrite(p, chunk)
			if wait := chunkInterval - (p.Now() - t0); wait > 0 {
				p.Sleep(wait)
			}
		}
	})

	// Measure steady state: skip the first quarter of the window.
	c.Parallelize()
	warm := fig12Window / 4
	c.RunUntil(warm)
	convStart := dev.Scheduler().BytesBySource(sched.Conventional)
	fastStart := dev.Scheduler().BytesBySource(sched.Destage)
	c.RunUntil(fig12Window)
	c.capture(fmt.Sprintf("fig12/%s/offer%.0f", policy, fastOffer*100))
	window := (fig12Window - warm).Seconds()
	conv = float64(dev.Scheduler().BytesBySource(sched.Conventional)-convStart) / window / progBW
	fast = float64(dev.Scheduler().BytesBySource(sched.Destage)-fastStart) / window / progBW
	return conv, fast
}

// Fig12 regenerates the paper's Figure 12: Neutral (left) and
// Conventional Priority (right).
func Fig12() []*Table {
	var out []*Table
	for _, policy := range []sched.Policy{sched.Neutral, sched.ConventionalPriority} {
		t := &Table{
			Title:  fmt.Sprintf("Fig 12 — opportunistic destaging, %s scheduling", policy),
			Note:   fmt.Sprintf("conventional offered load fixed at %.0f%% of program bandwidth", fig12ConvOffer*100),
			Header: []string{"fast offered", "conventional achieved", "fast achieved", "total"},
		}
		for _, offer := range fig12FastOffers {
			conv, fast := Fig12Cell(policy, offer)
			t.Add(fmt.Sprintf("%.0f%%", offer*100),
				fmt.Sprintf("%.0f%%", conv*100),
				fmt.Sprintf("%.0f%%", fast*100),
				fmt.Sprintf("%.0f%%", (conv+fast)*100))
		}
		out = append(out, t)
	}
	return out
}
