package bench

import (
	"fmt"
	"time"

	"xssd/internal/core"
	"xssd/internal/pm"
	"xssd/internal/sim"
	"xssd/internal/stack"
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

// lastGroupStats holds the group counters of the most recently finished
// grouped cell — a figure, pargroup or shard cell — for the perf harness
// to print beside a pargroup cell's timing. The hand-off counters are host
// dependent: never written to a baseline file.
var lastGroupStats sim.GroupStats

// LastGroupStats returns the group counters of the most recently finished
// grouped cell.
func LastGroupStats() sim.GroupStats { return lastGroupStats }

// PargroupCell runs devices independent members under simWorkers quantum
// executors and reports the total events dispatched.
func PargroupCell(devices, simWorkers int) int64 {
	g := sim.NewGroup(sim.GroupConfig{Workers: simWorkers, Quantum: pargroupQuantum})
	defer g.Close()
	defer func() { lastGroupStats = g.Stats() }()
	for i := 0; i < devices; i++ {
		env := g.NewEnv(fmt.Sprintf("d%d", i), int64(1000+i))
		dev := fig10Device(env, "fig10", pm.SRAMSpec)
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
// host member, two eager secondaries on members of their own behind
// cross-member NTB bridges, the default 1µs quantum the 1.1µs hop
// dictates — so all three members are active in nearly every quantum and
// each does a few dozen events in it.

// PargroupReplCell runs the replicated topology under simWorkers quantum
// executors and reports the total events dispatched.
func PargroupReplCell(simWorkers int) int64 {
	st := pargroupRepl(simWorkers)
	defer st.Close()
	defer func() { lastGroupStats = st.Stats() }()
	st.Host.Go("writer", func(p *sim.Proc) {
		// Boot's replication setup drives the secondaries' queues
		// directly, which is legal while the group is still inline.
		if err := st.Boot(p); err != nil {
			panic(err) // fresh devices: none refuses its role
		}
		st.Parallelize()
		l := xapi.Open(p, st.Primary, xapi.Options{})
		buf := make([]byte, 256)
		for {
			l.XPwrite(p, buf)
		}
	})
	st.RunUntil(pargroupWindow)
	return st.Events()
}

// pargroupRepl builds the repl3 topology, each device named apart.
func pargroupRepl(simWorkers int) *stack.Stack {
	return newReplCell(2000, simWorkers, core.Eager, func(env *sim.Env, name string) *villars.Device {
		return fig10Device(env, name, pm.SRAMSpec)
	}, "prim", "sec0", "sec1")
}
