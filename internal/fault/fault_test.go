package fault

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"xssd/internal/sim"
)

func TestParseEncodeRoundTrip(t *testing.T) {
	text := `
# a comment
at 5ms device.power@p fail
on 40000 nand.program fail x 3
prob 0.05 transport.mirror drop x 10
prob 0.025 ntb.deliver delay 300us x 5
at 8ms transport.shadow@s0 freeze 4ms
`
	p, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.Rules) != 5 {
		t.Fatalf("parsed %d rules, want 5", len(p.Rules))
	}
	if r := p.Rules[0]; r.Trigger != TriggerAt || r.At != 5*time.Millisecond ||
		r.Point != "device.power@p" || r.Action != ActionFail {
		t.Fatalf("rule 0 = %+v", r)
	}
	if r := p.Rules[3]; r.Action != ActionDelay || r.Dur != 300*time.Microsecond || r.Times != 5 {
		t.Fatalf("rule 3 = %+v", r)
	}
	enc := p.Encode()
	p2, err := Parse(enc)
	if err != nil {
		t.Fatalf("Parse(Encode): %v\n%s", err, enc)
	}
	if p2.Encode() != enc {
		t.Fatalf("encode not a fixed point:\n%q\nvs\n%q", enc, p2.Encode())
	}
	if len(p2.Rules) != len(p.Rules) {
		t.Fatalf("round trip changed rule count: %d vs %d", len(p2.Rules), len(p.Rules))
	}
	for i := range p.Rules {
		if p.Rules[i] != p2.Rules[i] {
			t.Fatalf("rule %d changed: %+v vs %+v", i, p.Rules[i], p2.Rules[i])
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"at 5ms",                            // too few fields
		"sometimes 5ms nand.program fail",   // unknown trigger
		"at xyz nand.program fail",          // bad duration
		"on 0 nand.program fail",            // count < 1
		"on -3 nand.program fail",           // negative count
		"prob 0 nand.program fail",          // p = 0
		"prob 1.5 nand.program fail",        // p > 1
		"at 5ms nand.program explode",       // unknown action
		"at 5ms nand.program delay",         // delay without duration
		"at 5ms nand.program fail x 0",      // zero repeat
		"at 5ms nand.program fail y 2",      // bad repeat syntax
		"at 5ms nand.program fail x 2 more", // trailing junk
		"at 5ms Nand.program fail",          // uppercase point
		"at 5ms nand..program fail",         // empty segment
		"at 5ms nand.program@ fail",         // empty scope
		"at 5ms nand.program@p! fail",       // bad scope char
		"at -5ms nand.program fail",         // negative time
	}
	for _, line := range bad {
		if _, err := Parse(line); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", line)
		} else if !errors.Is(err, ErrBadPlan) {
			t.Errorf("Parse(%q) error %v does not wrap ErrBadPlan", line, err)
		}
	}
}

func TestOnCountTrigger(t *testing.T) {
	env := sim.NewEnv(1)
	plan := &Plan{Rules: []Rule{
		{Point: NANDProgram, Trigger: TriggerOn, Count: 10, Action: ActionFail, Times: 2},
	}}
	inj := New(env, plan)
	fails := 0
	for i := 0; i < 40; i++ {
		if inj.Check(NANDProgram, "", 1).Fail() {
			fails++
			if i != 9 && i != 19 {
				t.Fatalf("fired on check %d, want checks 9 and 19", i)
			}
		}
	}
	if fails != 2 {
		t.Fatalf("fired %d times, want 2 (Times budget)", fails)
	}
	if got := len(inj.Firings()); got != 2 {
		t.Fatalf("firings = %d, want 2", got)
	}
}

func TestOnCountWeightedCrossing(t *testing.T) {
	env := sim.NewEnv(1)
	plan := &Plan{Rules: []Rule{
		{Point: DevicePower, Trigger: TriggerOn, Count: 1000, Action: ActionFail},
	}}
	inj := New(env, plan)
	// 300-byte writes: the 1000-byte boundary is crossed inside the 4th.
	for i := 0; i < 10; i++ {
		d := inj.Check(DevicePower, "p", 300)
		if d.Fail() != (i == 3) {
			t.Fatalf("check %d: fail=%v", i, d.Fail())
		}
	}
}

func TestComponentScoping(t *testing.T) {
	env := sim.NewEnv(1)
	plan := &Plan{Rules: []Rule{
		{Point: DestageWrite + "@s0", Trigger: TriggerOn, Count: 2, Action: ActionFail},
	}}
	inj := New(env, plan)
	// Checks from other components must not advance the scoped counter.
	for i := 0; i < 5; i++ {
		if inj.Check(DestageWrite, "p", 1).Fail() {
			t.Fatal("rule scoped to s0 fired for p")
		}
	}
	if inj.Check(DestageWrite, "s0", 1).Fail() {
		t.Fatal("fired on s0's first op, want second")
	}
	if !inj.Check(DestageWrite, "s0", 1).Fail() {
		t.Fatal("did not fire on s0's second op")
	}
}

func TestAtTimeViaCheckAndOnTime(t *testing.T) {
	env := sim.NewEnv(1)
	plan := &Plan{Rules: []Rule{
		{Point: WALSink, Trigger: TriggerAt, At: time.Millisecond, Action: ActionFail},
		{Point: DevicePower + "@p", Trigger: TriggerAt, At: 2 * time.Millisecond, Action: ActionFail},
	}}
	inj := New(env, plan)
	fired := false
	inj.OnTime(DevicePower, "p", func() { fired = true })

	var early, late Decision
	env.Go("driver", func(p *sim.Proc) {
		early = inj.Check(WALSink, "", 1)
		p.Sleep(1500 * time.Microsecond)
		late = inj.Check(WALSink, "", 1)
	})
	env.RunUntil(5 * time.Millisecond)

	if early.Act != ActionNone {
		t.Fatalf("at-rule fired before its time: %+v", early)
	}
	if !late.Fail() {
		t.Fatalf("at-rule did not fire after its time: %+v", late)
	}
	if !fired {
		t.Fatal("OnTime-armed rule did not fire")
	}
	// The armed rule must not double-fire through Check.
	fs := inj.Firings()
	power := 0
	for _, f := range fs {
		if f.Point == DevicePower+"@p" {
			power++
		}
	}
	if power != 1 {
		t.Fatalf("device.power fired %d times, want 1", power)
	}
	if len(fs) != 2 {
		t.Fatalf("firings = %+v, want 2", fs)
	}
}

func TestProbDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []bool {
		env := sim.NewEnv(seed)
		inj := New(env, &Plan{Rules: []Rule{
			{Point: TransportMirror, Trigger: TriggerProb, Prob: 0.3, Action: ActionDrop},
		}})
		var out []bool
		for i := 0; i < 100; i++ {
			out = append(out, inj.Check(TransportMirror, "p", 1).Drop())
		}
		return out
	}
	a, b, c := run(7), run(7), run(8)
	same := func(x, y []bool) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed produced different prob decisions")
	}
	if same(a, c) {
		t.Fatal("different seeds produced identical prob decisions (suspicious)")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if inj.Check("x", "", 1).Act != ActionNone {
		t.Fatal("nil injector fired")
	}
	inj.OnTime("x", "", func() { t.Fatal("nil injector armed a rule") })
	if inj.Firings() != nil {
		t.Fatal("nil injector has firings")
	}
	env := sim.NewEnv(1)
	if CheckEnv(env, "x", "", 1).Act != ActionNone {
		t.Fatal("unattached env fired")
	}
}

func TestAttachDetach(t *testing.T) {
	env := sim.NewEnv(1)
	inj := New(env, &Plan{Rules: []Rule{
		{Point: WALSink, Trigger: TriggerOn, Count: 1, Action: ActionFail, Times: 100},
	}})
	Attach(env, inj)
	if !CheckEnv(env, WALSink, "", 1).Fail() {
		t.Fatal("attached injector did not fire")
	}
	Detach(env)
	if CheckEnv(env, WALSink, "", 1).Act != ActionNone {
		t.Fatal("detached env still fired")
	}
	if For(env) != nil {
		t.Fatal("For after Detach is non-nil")
	}
}

// TestDetachLeavesNothingBehind: the injector hangs off the Env itself, so
// Detach on an Env that never had one is a no-op, a detached Env takes a
// new injector, and one Env's injector is invisible from another.
func TestDetachLeavesNothingBehind(t *testing.T) {
	env, other := sim.NewEnv(1), sim.NewEnv(1)
	Detach(env)
	if For(env) != nil {
		t.Fatal("For on a never-attached Env is non-nil")
	}
	plan := &Plan{Rules: []Rule{{Point: WALSink, Trigger: TriggerOn, Count: 1, Action: ActionFail, Times: 100}}}
	first, second := New(env, plan), New(env, plan)
	Attach(env, first)
	Detach(env)
	if For(env) != nil || CheckEnv(env, WALSink, "", 1).Act != ActionNone {
		t.Fatal("detached Env still has an injector")
	}
	Attach(env, second)
	if For(env) != second || !CheckEnv(env, WALSink, "", 1).Fail() {
		t.Fatal("re-attached injector is not the one in use")
	}
	if For(other) != nil || CheckEnv(other, WALSink, "", 1).Act != ActionNone {
		t.Fatal("one Env's injector is visible from another")
	}
	if len(first.Firings()) != 0 || len(second.Firings()) != 1 {
		t.Fatalf("firings: detached %d, attached %d, want 0 and 1", len(first.Firings()), len(second.Firings()))
	}
}

// TestCheckEnvSharesNothingAcrossMembers: two members of a group sit in
// CheckEnv loops through the same quanta, on two goroutines when the host
// has them. Each lookup touches its own Env only, so -race stays quiet and
// each member's decisions are those of a run on its own.
func TestCheckEnvSharesNothingAcrossMembers(t *testing.T) {
	plan := &Plan{Rules: []Rule{{Point: NTBDeliver, Trigger: TriggerProb, Prob: 0.3, Action: ActionDrop}}}
	run := func(workers int) [2][]Firing {
		g := sim.NewGroup(sim.GroupConfig{Workers: workers})
		defer g.Close()
		var injs [2]*Injector
		for i := range injs {
			e := g.NewEnv(fmt.Sprintf("m%d", i), int64(10+i))
			injs[i] = New(e, plan)
			Attach(e, injs[i])
			var tick func()
			tick = func() {
				for n := 0; n < 20; n++ {
					CheckEnv(e, NTBDeliver, "b", 1)
				}
				e.After(100*time.Nanosecond, tick)
			}
			e.After(0, tick)
		}
		g.RunUntil(200 * time.Microsecond)
		for _, e := range g.Envs() {
			Detach(e)
		}
		return [2][]Firing{injs[0].Firings(), injs[1].Firings()}
	}
	serial, parallel := run(1), run(2)
	for i := range serial {
		if len(serial[i]) == 0 {
			t.Fatalf("member %d never fired", i)
		}
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("member %d: firings differ between workers 1 and 2", i)
		}
	}
}

func TestRandomPlanIsValidAndDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng1 := sim.NewEnv(seed).Rand()
		rng2 := sim.NewEnv(seed).Rand()
		p1 := RandomPlan(rng1, 30*time.Millisecond, seed%2 == 0, "p")
		p2 := RandomPlan(rng2, 30*time.Millisecond, seed%2 == 0, "p")
		if err := p1.Validate(); err != nil {
			t.Fatalf("seed %d: invalid random plan: %v\n%s", seed, err, p1.Encode())
		}
		if p1.Encode() != p2.Encode() {
			t.Fatalf("seed %d: random plan not deterministic", seed)
		}
		if _, err := Parse(p1.Encode()); err != nil {
			t.Fatalf("seed %d: random plan does not re-parse: %v", seed, err)
		}
	}
}
