package bench

import (
	"fmt"
	"time"

	"xssd/internal/core"
	"xssd/internal/nand"
	"xssd/internal/ntb"
	"xssd/internal/nvme"
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
	c := newCellSim(5)
	defer c.Close()
	env := c.env
	prim := fig13Device(env, "prim", period)
	// At -workers >= 1 the secondary lives on its own member and
	// all pair traffic — mirrored writes one way, counter updates the
	// other — crosses at barriers through the bridges.
	secEnv := c.member("sec", 6)
	sec := fig13Device(secEnv, "sec", period)
	toSec := ntb.NewDefaultBridgeTo(env, secEnv, "p-s")
	toPrim := ntb.NewDefaultBridgeTo(secEnv, env, "s-p")
	prim.Transport().AddPeer(sec, toSec, toPrim)
	setRoles(c, prim, sec)

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
	c.capture(fmt.Sprintf("fig13/period%v", period))
	updates := sec.Transport().UpdatesSent()
	wire := float64(updates) * float64(core.CounterUpdateBytes)
	share := wire / (ntb.DefaultBandwidth * fig13Window.Seconds())
	return sample.Candlestick(), share * 100
}

// setRoles flips the pair into secondary/primary through the admin path.
// It runs during bring-up (the group is still inline), so the admin proc
// may drive the secondary's queues directly even when it lives on another
// member.
//
// Fig 13 and the pargroup/repl3 cells wire by hand rather than through
// repl.Setup on purpose. Here AddPeer runs before the role command, so the
// secondary starts reporting the moment it turns secondary; under
// repl.Setup it starts when its AddPeer lands, after the role command
// completes. That shifts the counter-update phase, which would move Fig
// 13's quantiles and the event counts the perf gate holds by equality.
func setRoles(c *cellSim, prim, sec *villars.Device) {
	c.env.Go("set-roles", func(p *sim.Proc) {
		submitMode(p, sec, core.Secondary)
		submitMode(p, prim, core.Primary)
	})
	c.RunUntil(c.Now() + 100*time.Microsecond)
}

func submitMode(p *sim.Proc, d *villars.Device, mode core.TransportMode) {
	d.HostDriver().Submit(p, nvme.Command{Opcode: nvme.OpXSetTransportMode, CDW: int64(mode)})
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
