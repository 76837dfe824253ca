package bench

import (
	"fmt"
	"time"

	"xssd/internal/core"
	"xssd/internal/nand"
	"xssd/internal/ntb"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/pm"
	"xssd/internal/sim"
	"xssd/internal/villars"
	"xssd/internal/xapi"
)

// Fig 13 (§6.5): replication delay versus the secondary's shadow-counter
// update period. A primary/secondary pair is wired over NTB; a writer
// issues small CMB writes, and for each write we measure the time until
// the primary's shadow counter covers it — i.e., the write is confirmed on
// the secondary. The right axis reports the share of fabric bandwidth the
// fixed-rate counter updates consume.

var fig13Periods = []time.Duration{
	400 * time.Nanosecond,
	800 * time.Nanosecond,
	1200 * time.Nanosecond,
	1600 * time.Nanosecond,
}

const (
	fig13Window    = 4 * time.Millisecond
	fig13WriteSize = 64
	fig13WritePace = 4 * time.Microsecond
)

func fig13Device(env *sim.Env, name string, period time.Duration) *villars.Device {
	cfg := villars.DefaultConfig(name)
	cfg.Backing = pm.SRAMSpec
	cfg.Geometry = nand.Geometry{Channels: 4, WaysPerChan: 4, BlocksPerDie: 64, PagesPerBlock: 64, PageSize: 16 << 10}
	cfg.ShadowUpdatePeriod = period
	return villars.New(env, cfg, pcie.NewHostMemory(1<<20))
}

// Fig13Cell measures the shadow-counter confirmation delay distribution
// and the counter-update bandwidth share for one period.
func Fig13Cell(period time.Duration) (obs.Candlestick, float64) {
	// The secondary lives on its own member, so all pair traffic —
	// mirrored writes one way, counter updates the other — crosses at
	// barriers through the bridges.
	c := newReplCell(5, engineWorkers, core.Eager, func(env *sim.Env, name string) *villars.Device {
		return fig13Device(env, name, period)
	}, "prim", "sec")
	defer c.Close()
	env, prim, sec := c.Host, c.Primary, c.Devices[1]
	// Boot's replication setup drives the secondary's queue directly,
	// which is legal while the group is still inline.
	env.Go("set-roles", func(p *sim.Proc) {
		if err := c.Boot(p); err != nil {
			panic(err) // two fresh devices: neither refuses its role
		}
	})
	c.RunUntil(c.Now() + 100*time.Microsecond)

	var sample obs.Sample
	target := int64(0)
	env.Go("writer", func(p *sim.Proc) {
		l := xapi.Open(p, prim, xapi.Options{})
		buf := make([]byte, fig13WriteSize)
		for {
			t0 := p.Now()
			l.XPwrite(p, buf)
			target += int64(fig13WriteSize)
			want := target
			// Wait until the secondary's persistence is confirmed at the
			// primary (the shadow counter covers this write).
			p.WaitFor(prim.Transport().ShadowAdvanced, func() bool {
				return prim.Transport().Shadow(0) >= want
			})
			sample.Add(p.Now() - t0)
			// Jitter the pacing so samples are not phase-locked to the
			// update period.
			jitter := time.Duration(env.Rand().Intn(2000)) * time.Nanosecond
			if wait := fig13WritePace + jitter - (p.Now() - t0); wait > 0 {
				p.Sleep(wait)
			}
		}
	})
	c.Parallelize()
	c.RunUntil(fig13Window)
	capture(c.Group, fmt.Sprintf("fig13/period%v", period))
	updates := sec.Transport().UpdatesSent()
	wire := float64(updates) * float64(core.CounterUpdateBytes)
	share := wire / (ntb.DefaultBandwidth * fig13Window.Seconds())
	return sample.Candlestick(), share * 100
}

// Fig13 regenerates the paper's Figure 13.
func Fig13() *Table {
	t := &Table{
		Title:  "Fig 13 — replication delay vs shadow-counter update period",
		Note:   "delay: write at primary -> shadow counter confirms secondary persistence",
		Header: []string{"update period", "min", "p25", "p50", "p75", "max", "update bandwidth"},
	}
	for _, period := range fig13Periods {
		c, share := Fig13Cell(period)
		t.Add(fmt.Sprintf("%.1fµs", float64(period)/1e3),
			fmtDur(c.Min), fmtDur(c.P25), fmtDur(c.P50), fmtDur(c.P75), fmtDur(c.Max),
			fmt.Sprintf("%.2f%%", share))
	}
	return t
}
