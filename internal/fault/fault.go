package fault

import (
	"math/rand"
	"time"

	"xssd/internal/sim"
)

// Decision is what a hook site does right now: nothing, or one fired
// rule's action.
type Decision struct {
	Act ActionKind
	Dur time.Duration // for ActionDelay / ActionFreeze
}

// Fail reports whether the operation should error.
func (d Decision) Fail() bool { return d.Act == ActionFail }

// Drop reports whether the operation should be silently discarded.
func (d Decision) Drop() bool { return d.Act == ActionDrop }

// Firing records one fired rule, in firing order.
type Firing struct {
	At     time.Duration // virtual time of the check
	Point  string        // scoped point name as checked ("nand.program@p")
	Rule   int           // index into the plan's rules
	Action ActionKind
}

// ruleState is one compiled rule plus its runtime counters.
type ruleState struct {
	Rule
	index int
	bare  string // point without scope
	comp  string // "" = any component
	fired int64
	armed bool // firing delegated to an OnTime event
}

// Injector evaluates a plan against a simulation. Decisions draw only on
// virtual time, cumulative per-point counters, and a generator seeded
// once from the environment, so runs stay a pure function of
// (seed, plan). All methods must be called from the single simulation
// thread (process or scheduler context).
type Injector struct {
	env     *sim.Env
	rng     *rand.Rand
	rules   []*ruleState
	counts  map[counter]int64 // cumulative weights
	firings []Firing
}

// counter keys Injector.counts: a point's bare count has comp "", its
// count scoped to one component that component's name.
type counter struct{ point, comp string }

// New compiles a plan into an injector bound to env. A nil plan yields an
// injector that never fires. The plan must be valid (see Plan.Validate);
// invalid rules are skipped.
func New(env *sim.Env, plan *Plan) *Injector {
	inj := &Injector{
		env:    env,
		rng:    rand.New(rand.NewSource(env.Rand().Int63())),
		counts: map[counter]int64{},
	}
	if plan != nil {
		for i, r := range plan.Rules {
			if r.validate() != nil {
				continue
			}
			bare, comp := splitPoint(r.Point)
			inj.rules = append(inj.rules, &ruleState{Rule: r, index: i, bare: bare, comp: comp})
		}
	}
	return inj
}

// envKey is the sim.Env attachment slot holding the environment's
// injector, so hook sites deep in the stack can find it without plumbing.
// The injector lives and dies with its Env, and a lookup touches only that
// Env's own state: group members checking side by side share nothing.
const envKey = "fault"

// Attach registers inj as env's injector, replacing any previous one.
func Attach(env *sim.Env, inj *Injector) { env.Attach(envKey, inj) }

// Detach removes env's injector. Pair it with Attach where the Env keeps
// running afterwards, so one phase's plan cannot leak into the next.
func Detach(env *sim.Env) { env.Attach(envKey, nil) }

// For returns env's injector, or nil when none is attached.
func For(env *sim.Env) *Injector {
	inj, _ := env.Attachment(envKey).(*Injector)
	return inj
}

// CheckEnv is the hook-site entry point: evaluate point for env's
// injector, if any. With no injector attached it returns the zero
// Decision at the cost of one lookup in env's attachments.
func CheckEnv(env *sim.Env, point, comp string, weight int64) Decision {
	return For(env).Check(point, comp, weight)
}

// Check advances point's counters by weight and returns the action of
// the first rule that fires, evaluated in plan order. comp scopes the
// check to one component ("" when the site has no scope); weight is the
// count contribution (1 for discrete ops, byte counts for streams). Safe
// on a nil receiver.
func (i *Injector) Check(point, comp string, weight int64) Decision {
	if i == nil || weight <= 0 {
		return Decision{}
	}
	before := i.counts[counter{point, ""}]
	after := before + weight
	i.counts[counter{point, ""}] = after
	var compBefore, compAfter int64
	if comp != "" {
		compBefore = i.counts[counter{point, comp}]
		compAfter = compBefore + weight
		i.counts[counter{point, comp}] = compAfter
	}
	now := i.env.Now()
	for _, r := range i.rules {
		if r.bare != point || r.armed || r.fired >= r.MaxFires() {
			continue
		}
		if r.comp != "" && r.comp != comp {
			continue
		}
		b, a := before, after
		if r.comp != "" {
			b, a = compBefore, compAfter
		}
		if !r.triggered(i.rng, now, b, a) {
			continue
		}
		r.fired++
		scoped := point
		if comp != "" {
			scoped = point + "@" + comp
		}
		i.firings = append(i.firings, Firing{At: now, Point: scoped, Rule: r.index, Action: r.Action})
		return Decision{Act: r.Action, Dur: r.Dur}
	}
	return Decision{}
}

// triggered evaluates one rule against the counter window [before,after)
// at virtual time now.
func (r *ruleState) triggered(rng *rand.Rand, now time.Duration, before, after int64) bool {
	switch r.Trigger {
	case TriggerAt:
		// Fires on checks at or past the trigger time, up to the budget:
		// "from t onward, the next Times operations".
		return now >= r.At
	case TriggerOn:
		// Fires when the counter crosses the next multiple of Count.
		boundary := r.Count * (r.fired + 1)
		return after >= boundary && before < boundary
	case TriggerProb:
		return rng.Float64() < r.Prob
	}
	return false
}

// OnTime arms every at-trigger rule for point (scoped to comp) as an
// exact-time event: fn runs at each rule's trigger time instead of
// waiting for the next Check. fn runs in scheduler context and must not
// block. Call before the simulation passes the rules' times. Safe on a
// nil receiver.
func (i *Injector) OnTime(point, comp string, fn func()) {
	if i == nil {
		return
	}
	for _, r := range i.rules {
		if r.bare != point || r.Trigger != TriggerAt || r.armed {
			continue
		}
		if r.comp != "" && r.comp != comp {
			continue
		}
		r.armed = true
		r := r
		scoped := point
		if comp != "" {
			scoped = point + "@" + comp
		}
		i.env.At(r.At, func() {
			if r.fired >= r.MaxFires() {
				return
			}
			r.fired++
			i.firings = append(i.firings, Firing{At: i.env.Now(), Point: scoped, Rule: r.index, Action: r.Action})
			fn()
		})
	}
}

// Firings returns every fired rule in firing order. Safe on a nil
// receiver.
func (i *Injector) Firings() []Firing {
	if i == nil {
		return nil
	}
	out := make([]Firing, len(i.firings))
	copy(out, i.firings)
	return out
}

// RandomPlan draws a randomized chaos plan from rng: a handful of
// bounded-budget rules over the standard fault points, sized so a
// window-long workload keeps making progress. replicated adds the
// transport-facing rules; crashComp, when nonempty, scopes an optional
// power-loss rule to that device. All durations stay well under window
// so every transient clears before the run's settle phase.
func RandomPlan(rng *rand.Rand, window time.Duration, replicated bool, crashComp string) *Plan {
	p := &Plan{}
	add := func(r Rule) { p.Rules = append(p.Rules, r) }
	short := func(max time.Duration) time.Duration {
		return time.Duration(rng.Int63n(int64(max))) + 50*time.Microsecond
	}

	if rng.Intn(2) == 0 {
		add(Rule{Point: NANDProgram, Trigger: TriggerProb, Prob: 0.02 + 0.08*rng.Float64(),
			Action: ActionFail, Times: int64(rng.Intn(4)) + 1})
	}
	if rng.Intn(3) == 0 {
		add(Rule{Point: DestageWrite, Trigger: TriggerOn, Count: int64(rng.Intn(40)) + 10,
			Action: ActionFail, Times: int64(rng.Intn(3)) + 1})
	}
	if rng.Intn(3) == 0 {
		add(Rule{Point: WALSink, Trigger: TriggerOn, Count: int64(rng.Intn(6)) + 2,
			Action: ActionFail, Times: int64(rng.Intn(2)) + 1})
	}
	if replicated {
		if rng.Intn(2) == 0 {
			add(Rule{Point: TransportMirror, Trigger: TriggerProb, Prob: 0.01 + 0.09*rng.Float64(),
				Action: ActionDrop, Times: int64(rng.Intn(12)) + 2})
		}
		if rng.Intn(2) == 0 {
			add(Rule{Point: NTBDeliver, Trigger: TriggerProb, Prob: 0.01 + 0.04*rng.Float64(),
				Action: ActionDelay, Dur: short(300 * time.Microsecond), Times: int64(rng.Intn(8)) + 2})
		}
		if rng.Intn(3) == 0 {
			add(Rule{Point: TransportShadow, Trigger: TriggerAt, At: short(window / 2),
				Action: ActionFreeze, Dur: short(window / 4)})
		}
	}
	if crashComp != "" && rng.Intn(3) == 0 {
		at := window/4 + time.Duration(rng.Int63n(int64(window/2)))
		add(Rule{Point: DevicePower + "@" + crashComp, Trigger: TriggerAt, At: at, Action: ActionFail})
	}
	return p
}
