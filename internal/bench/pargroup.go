package bench

import (
	"fmt"
	"time"

	"xssd/internal/core"
	"xssd/internal/ntb"
	"xssd/internal/pm"
	"xssd/internal/sim"
	"xssd/internal/villars"
	"xssd/internal/xapi"
)

// The pargroup cells measure what the parallel engine buys on aggregate
// simulation throughput: N independent devices, each on its own group
// member with its own fast-side writer, no cross-member traffic. The
// topology is identical at every worker count, so the event count is too
// (Compare enforces it across /swN twins); only the wall clock moves.

const (
	pargroupDevices = 8
	pargroupWindow  = 20 * time.Millisecond
	// With no cross-member traffic there is no lookahead bound, so the
	// quantum only sets barrier overhead. Keep it large.
	pargroupQuantum = 100 * time.Microsecond
)

// lastGroupStats holds the hand-off counters of the most recently finished
// pargroup cell, for the perf harness to print beside its timing. Host
// dependent: never written to a baseline file.
var lastGroupStats sim.GroupStats

// LastGroupStats returns the hand-off counters of the most recently
// finished pargroup cell.
func LastGroupStats() sim.GroupStats { return lastGroupStats }

// PargroupCell runs devices independent members under simWorkers quantum
// executors and reports the total events dispatched.
func PargroupCell(devices, simWorkers int) int64 {
	g := sim.NewGroup(sim.GroupConfig{Workers: simWorkers, Quantum: pargroupQuantum})
	defer g.Close()
	defer func() { lastGroupStats = g.Stats() }()
	for i := 0; i < devices; i++ {
		env := g.NewEnv(fmt.Sprintf("d%d", i), int64(1000+i))
		dev := fig10Device(env, pm.SRAMSpec)
		env.Go("writer", func(p *sim.Proc) {
			l := xapi.Open(p, dev, xapi.Options{})
			buf := make([]byte, 256)
			for {
				l.XPwrite(p, buf)
			}
		})
	}
	g.RunUntil(pargroupWindow)
	return g.Events()
}

// The repl3 cells are the same question at the quantum every replicated
// topology actually runs: the fig 13 wiring under load — a primary on the
// host member, pargroupSecondaries eager secondaries on members of their
// own behind cross-member NTB bridges, the default 1µs quantum the 1.1µs
// hop dictates — so all three members are active in nearly every quantum
// and each does a few dozen events in it.
const pargroupSecondaries = 2

// PargroupReplCell runs the replicated topology under simWorkers quantum
// executors and reports the total events dispatched.
func PargroupReplCell(simWorkers int) int64 {
	g := sim.NewGroup(sim.GroupConfig{Workers: simWorkers, StartInline: true})
	defer g.Close()
	defer func() { lastGroupStats = g.Stats() }()
	env := g.NewEnv("host", 2000)
	prim := fig10Device(env, pm.SRAMSpec)
	prim.Transport().SetScheme(core.Eager)
	secs := make([]*villars.Device, pargroupSecondaries)
	for i := range secs {
		name := fmt.Sprintf("sec%d", i)
		secEnv := g.NewEnv(name, int64(2001+i))
		secs[i] = fig10Device(secEnv, pm.SRAMSpec)
		prim.Transport().AddPeer(secs[i],
			ntb.NewDefaultBridgeTo(env, secEnv, "p-"+name),
			ntb.NewDefaultBridgeTo(secEnv, env, name+"-p"))
	}
	env.Go("writer", func(p *sim.Proc) {
		// Role assignment drives the secondaries' queues directly, which
		// is legal while the group is still inline.
		for _, sec := range secs {
			submitMode(p, sec, core.Secondary)
		}
		submitMode(p, prim, core.Primary)
		g.Parallelize()
		l := xapi.Open(p, prim, xapi.Options{})
		buf := make([]byte, 256)
		for {
			l.XPwrite(p, buf)
		}
	})
	g.RunUntil(pargroupWindow)
	return g.Events()
}
