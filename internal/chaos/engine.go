package chaos

import (
	"fmt"

	"xssd/internal/fault"
	"xssd/internal/sim"
)

// engine is the group a scenario runs on plus the fault injectors hooked
// into its members. The primary and the whole host side — WAL, database,
// TPC-C workers, monitor, watchdog — live on member 0, and secondary i on
// member i+1. SimWorkers only sizes the executor pool; 1 (or less) is the
// serial runner over the same members: same barriers, same mailbox merge,
// no helper — the differential suite's baseline.
type engine struct {
	group *sim.Group
	host  *sim.Env   // member 0
	envs  []*sim.Env // members in index order
	injs  []*fault.Injector
}

// newEngine builds the members and attaches one fault injector to each
// (seeded from its own member's rng, armed before any device is built so
// at-time power rules land). Call detach when done.
func newEngine(seed int64, simWorkers, secondaries int, plan *fault.Plan) *engine {
	en := &engine{group: sim.NewGroup(sim.GroupConfig{Workers: simWorkers, StartInline: true})}
	en.host = en.group.NewEnv("host", seed)
	for i := 0; i < secondaries; i++ {
		en.group.NewEnv(fmt.Sprintf("s%d", i), sim.MemberSeed(seed, i+1))
	}
	en.envs = en.group.Envs()
	for _, e := range en.envs {
		inj := fault.New(e, plan)
		fault.Attach(e, inj)
		en.injs = append(en.injs, inj)
	}
	return en
}

// firings sums fired fault rules across members in index order.
func (en *engine) firings() int {
	n := 0
	for _, inj := range en.injs {
		n += len(inj.Firings())
	}
	return n
}

// detach unhooks the fault injectors from the member Envs.
func (en *engine) detach() {
	for _, e := range en.envs {
		fault.Detach(e)
	}
}
