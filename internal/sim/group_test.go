package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
)

// groupTrace is one observed delivery: who sent, what, and when it landed.
type groupTrace struct {
	Src, Val int
	At       time.Duration
}

// runCrossTraffic builds a k-member group where every member runs a
// deterministic proc that computes, burns randomness from its own Env, and
// posts values to the other members over a 2µs mailbox latency. It returns
// the per-member delivery logs, the total event count, and one final rng
// draw per member.
func runCrossTraffic(k, workers int, until time.Duration) ([][]groupTrace, int64, []int64) {
	g := NewGroup(GroupConfig{Workers: workers})
	envs := make([]*Env, k)
	for i := 0; i < k; i++ {
		envs[i] = g.NewEnv(fmt.Sprintf("m%d", i), int64(1000+i))
	}
	logs := make([][]groupTrace, k)
	for i := 0; i < k; i++ {
		i := i
		e := envs[i]
		e.Go("talker", func(p *Proc) {
			val := 0
			for {
				p.Sleep(time.Duration(100 + e.Rand().Intn(900)))
				val++
				dst := envs[(i+1+e.Rand().Intn(k-1))%k]
				src, v, at := i, val, p.Now()+2*time.Microsecond
				e.PostTo(dst, at, func() {
					logs[dst.gidx] = append(logs[dst.gidx], groupTrace{Src: src, Val: v, At: dst.Now()})
				})
			}
		})
	}
	g.RunUntil(until)
	events := g.Events()
	draws := make([]int64, k)
	for i, e := range envs {
		draws[i] = e.Rand().Int63()
	}
	g.Close()
	return logs, events, draws
}

// TestGroupCrossEnvDeterminism is the heart of the differential contract:
// the same seeded program yields byte-identical delivery logs, event
// counts, and rng states whether the group runs with 1, 2, or 8 workers.
func TestGroupCrossEnvDeterminism(t *testing.T) {
	refLogs, refEvents, refDraws := runCrossTraffic(5, 1, 3*time.Millisecond)
	if refEvents == 0 || len(refLogs[0]) == 0 {
		t.Fatalf("reference run did nothing: events=%d log0=%d", refEvents, len(refLogs[0]))
	}
	for _, workers := range []int{1, 2, 8} {
		logs, events, draws := runCrossTraffic(5, workers, 3*time.Millisecond)
		if events != refEvents {
			t.Errorf("workers=%d: events %d, want %d", workers, events, refEvents)
		}
		if !reflect.DeepEqual(draws, refDraws) {
			t.Errorf("workers=%d: rng states diverged", workers)
		}
		if !reflect.DeepEqual(logs, refLogs) {
			t.Errorf("workers=%d: delivery logs diverged", workers)
		}
	}
}

// TestGroupSingleMemberMatchesEnv proves quantum chopping is invisible: a
// single-member group produces the exact trace of a standalone Env with the
// same seed — the property the fig 9-12 differential cells rely on.
func TestGroupSingleMemberMatchesEnv(t *testing.T) {
	program := func(e *Env, log *[]groupTrace) {
		e.Go("worker", func(p *Proc) {
			for i := 0; ; i++ {
				p.Sleep(time.Duration(50 + e.Rand().Intn(500)))
				*log = append(*log, groupTrace{Val: i, At: p.Now()})
				e.After(time.Duration(e.Rand().Intn(300)), func() {
					*log = append(*log, groupTrace{Src: 1, At: e.Now()})
				})
			}
		})
	}

	var refLog []groupTrace
	ref := NewEnv(77)
	program(ref, &refLog)
	ref.RunUntil(time.Millisecond)
	refEvents, refDraw := ref.Events(), ref.Rand().Int63()
	ref.Close()

	for _, workers := range []int{1, 8} {
		var log []groupTrace
		g := NewGroup(GroupConfig{Workers: workers})
		e := g.NewEnv("solo", 77)
		program(e, &log)
		g.RunUntil(time.Millisecond)
		if e.Events() != refEvents {
			t.Errorf("workers=%d: events %d, want %d", workers, e.Events(), refEvents)
		}
		if d := e.Rand().Int63(); d != refDraw {
			t.Errorf("workers=%d: rng diverged", workers)
		}
		if !reflect.DeepEqual(log, refLog) {
			t.Errorf("workers=%d: trace diverged (%d vs %d entries)", workers, len(log), len(refLog))
		}
		g.Close()
	}
}

// TestGroupMergeOrder pins the barrier merge rule: posts landing at the
// same instant deliver in (sender index, send seq) order, never in worker
// completion order.
func TestGroupMergeOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		g := NewGroup(GroupConfig{Workers: workers})
		senders := make([]*Env, 4)
		for i := range senders {
			senders[i] = g.NewEnv(fmt.Sprintf("s%d", i), int64(i))
		}
		sink := g.NewEnv("sink", 99)
		var got []groupTrace
		deliver := 10 * time.Microsecond
		for i, e := range senders {
			i, e := i, e
			e.Go("burst", func(p *Proc) {
				// Sends land inside the same quantum but at staggered
				// sub-instants, so worker finish order varies; every delivery
				// is pinned to the same instant.
				p.Sleep(3*time.Microsecond + time.Duration(i*100))
				for j := 0; j < 3; j++ {
					src, v := i, j
					e.PostTo(sink, deliver, func() {
						got = append(got, groupTrace{Src: src, Val: v, At: sink.Now()})
					})
				}
			})
		}
		g.RunUntil(20 * time.Microsecond)
		g.Close()
		if len(got) != 12 {
			t.Fatalf("workers=%d: got %d deliveries, want 12", workers, len(got))
		}
		// Same barrier, same delivery instant: merge order is purely
		// (sender env index, send seq) — sender 3 posted last in real time
		// within the quantum, yet still sorts by its index.
		var want []groupTrace
		for i := 0; i < 4; i++ {
			for j := 0; j < 3; j++ {
				want = append(want, groupTrace{Src: i, Val: j, At: deliver})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: merge order %v, want %v", workers, got, want)
		}
	}
}

// TestGroupModeSwitches drives inline -> concurrent -> serialized and
// checks each switch lands at a barrier, with Serialize sticky.
func TestGroupModeSwitches(t *testing.T) {
	g := NewGroup(GroupConfig{Workers: 4, StartInline: true})
	a := g.NewEnv("a", 1)
	b := g.NewEnv("b", 2)
	b.Go("idle", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	a.Go("boot", func(p *Proc) {
		if !g.Inline() {
			t.Error("group did not start inline")
		}
		p.Sleep(5 * time.Microsecond)
		g.Parallelize()
		p.Sleep(5 * time.Microsecond)
		g.Serialize()
		p.Sleep(5 * time.Microsecond)
		g.Parallelize() // must be a no-op after Serialize
	})
	g.RunUntil(30 * time.Microsecond)
	if !g.Inline() {
		t.Error("Serialize was not sticky")
	}
	g.Close()
}

// waitGoroutines polls until the goroutine count drops back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, started with %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestGroupCloseReleasesEverything extends the PR 4 goroutine regression
// test to the parallel runner: Close at a barrier must release every parked
// process in every member and shut down the worker pool.
func TestGroupCloseReleasesEverything(t *testing.T) {
	base := runtime.NumGoroutine()
	g := NewGroup(GroupConfig{Workers: 8})
	for i := 0; i < 4; i++ {
		e := g.NewEnv(fmt.Sprintf("m%d", i), int64(i))
		for j := 0; j < 8; j++ {
			e.Go("sleeper", func(p *Proc) {
				for {
					p.Sleep(time.Microsecond)
				}
			})
		}
		sig := e.NewSignal()
		e.Go("waiter", func(p *Proc) { p.Wait(sig) })
	}
	g.RunUntil(time.Millisecond) // truncates mid-flight: everyone parked
	g.Close()
	waitGoroutines(t, base)
}

// TestGroupMemberCloseMidRun closes one member between barriers: its
// goroutines must be released immediately, the group must keep running the
// survivors, and posts addressed to the dead member must be dropped.
func TestGroupMemberCloseMidRun(t *testing.T) {
	base := runtime.NumGoroutine()
	g := NewGroup(GroupConfig{Workers: 4})
	a := g.NewEnv("a", 1)
	b := g.NewEnv("b", 2)
	aTicks, bDeliveries := 0, 0
	a.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
			aTicks++
			a.PostTo(b, p.Now()+2*time.Microsecond, func() { bDeliveries++ })
		}
	})
	b.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	g.RunUntil(10 * time.Microsecond)
	b.Close() // mid-run, at a barrier
	before := aTicks
	g.RunUntil(20 * time.Microsecond) // survivors continue; posts to b dropped
	if aTicks <= before {
		t.Errorf("survivor stalled after member close: %d -> %d ticks", before, aTicks)
	}
	g.Close()
	waitGoroutines(t, base)
}

// TestGroupProcPanicPropagates makes a process panic inside a concurrent
// quantum: the panic must surface as a *ProcPanic on the RunUntil caller,
// and the implicit Close must release every goroutine — a worker panicking
// inside a proc never strands the pool.
func TestGroupProcPanicPropagates(t *testing.T) {
	base := runtime.NumGoroutine()
	g := NewGroup(GroupConfig{Workers: 4})
	for i := 0; i < 3; i++ {
		e := g.NewEnv(fmt.Sprintf("m%d", i), int64(i))
		for j := 0; j < 4; j++ {
			e.Go("spinner", func(p *Proc) {
				for {
					p.Sleep(100 * time.Nanosecond)
				}
			})
		}
	}
	bad := g.NewEnv("bad", 9)
	bad.Go("bomber", func(p *Proc) {
		p.Sleep(50 * time.Microsecond)
		panic("boom")
	})
	func() {
		defer func() {
			pp, ok := recover().(*ProcPanic)
			if !ok {
				t.Fatalf("want *ProcPanic, got %T", pp)
			}
			if pp.Env != "bad" || pp.Proc != "bomber" || pp.Value != "boom" {
				t.Errorf("wrong failure attribution: %s/%s: %v", pp.Env, pp.Proc, pp.Value)
			}
		}()
		g.RunUntil(time.Millisecond)
	}()
	waitGoroutines(t, base)
}

// TestEnvProcPanicPropagates checks the standalone-Env side of the same
// contract: the panic rethrows from RunUntil on the driving goroutine and
// Close releases the rest.
func TestEnvProcPanicPropagates(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv(1)
	e.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	e.Go("bomber", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		panic("kaput")
	})
	func() {
		defer func() {
			pp, ok := recover().(*ProcPanic)
			if !ok || pp.Proc != "bomber" || pp.Value != "kaput" {
				t.Fatalf("want bomber *ProcPanic, got %#v", pp)
			}
		}()
		e.RunUntil(time.Millisecond)
	}()
	e.Close()
	waitGoroutines(t, base)
}

// TestGroupPostOutsideRun covers the direct-injection path: posts made
// before the first barrier (bring-up) and to a same-group member while the
// group is idle must still deliver at the requested time.
func TestGroupPostOutsideRun(t *testing.T) {
	g := NewGroup(GroupConfig{Workers: 2})
	a := g.NewEnv("a", 1)
	b := g.NewEnv("b", 2)
	var at time.Duration
	a.PostTo(b, 5*time.Microsecond, func() { at = b.Now() })
	g.RunUntil(10 * time.Microsecond)
	if at != 5*time.Microsecond {
		t.Errorf("pre-run post delivered at %v, want 5µs", at)
	}
	g.Close()
}

// TestPostToReturnsDeliveryInstant pins PostTo's return value on each of
// its paths: a post at or past the quantum's end runs when asked, a post
// inside the lookahead runs at the quantum's end, a post made while the
// group is idle runs at the request or at dst's clock if that is later, and
// a post to a closed member still reports where it would have run. In every
// case the reported instant is the one fn observes.
func TestPostToReturnsDeliveryInstant(t *testing.T) {
	g := NewGroup(GroupConfig{Workers: 2})
	defer g.Close()
	a := g.NewEnv("a", 1)
	b := g.NewEnv("b", 2)
	c := g.NewEnv("c", 3)
	type obs struct{ said, ran time.Duration }
	var seen []*obs
	post := func(dst *Env, at time.Duration) *obs {
		o := &obs{ran: -1}
		o.said = a.PostTo(dst, at, func() { o.ran = dst.Now() })
		seen = append(seen, o)
		return o
	}
	idle := post(b, 5*time.Microsecond)
	if idle.said != 5*time.Microsecond {
		t.Errorf("idle post: said %v, want 5µs", idle.said)
	}
	var far, near *obs
	var qEnd time.Duration
	a.At(10*time.Microsecond, func() {
		qEnd = a.Now() + g.Quantum()
		far = post(b, a.Now()+3*time.Microsecond)
		near = post(b, a.Now()+200*time.Nanosecond)
	})
	g.RunUntil(20 * time.Microsecond)
	if far.said != 13*time.Microsecond {
		t.Errorf("post past the quantum: said %v, want 13µs", far.said)
	}
	if near.said != qEnd {
		t.Errorf("post inside the lookahead: said %v, want the quantum's end %v", near.said, qEnd)
	}
	late := post(b, time.Microsecond) // b's clock is at 20µs
	if late.said != 20*time.Microsecond {
		t.Errorf("idle post into dst's past: said %v, want dst's clock 20µs", late.said)
	}
	c.Close()
	if said := a.PostTo(c, 25*time.Microsecond, func() { t.Error("post to a closed member ran") }); said != 25*time.Microsecond {
		t.Errorf("post to a closed member: said %v, want 25µs", said)
	}
	g.RunUntil(30 * time.Microsecond)
	for i, o := range seen {
		if o.ran != o.said {
			t.Errorf("post %d ran at %v, PostTo said %v", i, o.ran, o.said)
		}
	}
}

// TestSettledHorizon pins Env.Settled: 0 outside a group; inside one, the
// start of the executing quantum. The sender looks at what a post wrote in
// the receiver's member only once the post's instant lies before the
// horizon, and must then find it written — under -race that read is also
// the proof that a barrier orders it after the receiver's write. The
// horizons seen are the same at any worker count.
func TestSettledHorizon(t *testing.T) {
	if got := NewEnv(1).Settled(); got != 0 {
		t.Fatalf("standalone Env: Settled = %v, want 0", got)
	}
	type flight struct {
		at  time.Duration
		ran bool // written by the post, in the receiver's member
	}
	var first []time.Duration
	for _, workers := range []int{1, 2} {
		g := NewGroup(GroupConfig{Workers: workers})
		a := g.NewEnv("a", 1)
		b := g.NewEnv("b", 2)
		var flights []*flight
		checked := 0
		var horizons []time.Duration
		var tick func()
		tick = func() {
			h := a.Settled()
			horizons = append(horizons, h)
			if h > a.Now() {
				t.Errorf("workers %d: horizon %v ahead of the member's clock %v", workers, h, a.Now())
			}
			for ; checked < len(flights) && flights[checked].at < h; checked++ {
				if !flights[checked].ran {
					t.Errorf("workers %d: post at %v lies before the horizon %v and has not run", workers, flights[checked].at, h)
				}
			}
			f := &flight{}
			f.at = a.PostTo(b, a.Now()+1100*time.Nanosecond, func() { f.ran = true })
			flights = append(flights, f)
			a.After(300*time.Nanosecond, tick)
		}
		a.After(0, tick)
		var busy func()
		busy = func() { b.After(250*time.Nanosecond, busy) }
		b.After(0, busy)
		g.RunUntil(50 * time.Microsecond)
		if got := a.Settled(); got != 50*time.Microsecond {
			t.Errorf("workers %d: Settled after the run = %v, want 50µs", workers, got)
		}
		if checked < 100 {
			t.Errorf("workers %d: only %d posts were seen settled", workers, checked)
		}
		if workers == 1 {
			first = horizons
		} else if !slices.Equal(first, horizons) {
			t.Errorf("horizons differ between workers 1 and %d", workers)
		}
		g.Close()
	}
}

// TestGroupCrossEnvSignal exercises a foreign-Env Signal wait during an
// inline phase: the wake-up must land on the waiter's own queue.
func TestGroupCrossEnvSignal(t *testing.T) {
	g := NewGroup(GroupConfig{Workers: 2, StartInline: true})
	a := g.NewEnv("a", 1)
	b := g.NewEnv("b", 2)
	sig := b.NewSignal()
	woke := time.Duration(-1)
	a.Go("waiter", func(p *Proc) {
		p.Wait(sig)
		woke = p.Now()
	})
	b.Go("signaler", func(p *Proc) {
		p.Sleep(7 * time.Microsecond)
		sig.Broadcast()
	})
	g.RunUntil(20 * time.Microsecond)
	g.Close()
	if woke < 7*time.Microsecond {
		t.Errorf("cross-env wait woke at %v, want >= 7µs", woke)
	}
}

// TestGroupGrowsBetweenRuns adds members after a concurrent run. The
// executor count follows the member count at each RunUntil; a hand-off sized
// at first use (a completion buffer of two, then six members) hangs here.
func TestGroupGrowsBetweenRuns(t *testing.T) {
	g := NewGroup(GroupConfig{Workers: 2})
	ticks := make([]int, 6)
	add := func() {
		i := len(g.Envs())
		e := g.NewEnv(fmt.Sprintf("m%d", i), int64(i))
		e.Go("ticker", func(p *Proc) {
			for {
				p.Sleep(100 * time.Nanosecond)
				ticks[i]++
			}
		})
	}
	add()
	add()
	g.RunUntil(50 * time.Microsecond)
	for i := 0; i < 4; i++ {
		add()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.RunUntil(100 * time.Microsecond)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("second RunUntil did not return after the group grew from 2 to 6 members")
	}
	g.Close()
	for i, n := range ticks {
		if n == 0 {
			t.Errorf("member %d never ran", i)
		}
	}
}

// TestGroupBarrierZeroAlloc holds the barrier merge to zero allocations
// once the merge scratch and the members' queues have grown: three members,
// each posting to the other two out of key order in every quantum.
func TestGroupBarrierZeroAlloc(t *testing.T) {
	g := NewGroup(GroupConfig{Workers: 1})
	defer g.Close()
	envs := make([]*Env, 3)
	for i := range envs {
		envs[i] = g.NewEnv(fmt.Sprintf("m%d", i), int64(i))
	}
	delivered := 0
	land := func() { delivered++ }
	for i, e := range envs {
		var tick func()
		tick = func() {
			// Later instant first, so the merged outboxes need the sort.
			e.PostTo(envs[(i+1)%3], e.Now()+3*time.Microsecond, land)
			e.PostTo(envs[(i+2)%3], e.Now()+2*time.Microsecond, land)
			e.After(500*time.Nanosecond, tick)
		}
		e.After(0, tick)
	}
	g.RunUntil(100 * time.Microsecond)
	if delivered == 0 {
		t.Fatal("no post was delivered during warm-up")
	}
	before := delivered
	allocs := testing.AllocsPerRun(200, func() {
		g.RunUntil(g.Now() + time.Microsecond)
	})
	if delivered == before {
		t.Fatal("no post crossed a measured barrier")
	}
	if allocs != 0 {
		t.Fatalf("a barrier with posts in flight allocates %.1f objects, want 0", allocs)
	}
}

// ringResult is everything a ring run exposes: it must not depend on the
// worker count.
type ringResult struct {
	Logs   [][]groupTrace
	Draws  []int64
	Events int64
	Quanta int64
}

// runRing builds a random ring from seed — 2 to 8 members, each firing 1 to
// 50 events per quantum and posting to a random other member at random
// instants, some inside the lookahead so they clamp — and runs it.
func runRing(seed int64, workers int) ringResult {
	shape := rand.New(rand.NewSource(seed))
	k := 2 + shape.Intn(7)
	g := NewGroup(GroupConfig{Workers: workers})
	envs := make([]*Env, k)
	for i := range envs {
		envs[i] = g.NewEnv(fmt.Sprintf("m%d", i), seed*100+int64(i))
	}
	res := ringResult{Logs: make([][]groupTrace, k), Draws: make([]int64, k)}
	for i, e := range envs {
		perQuantum := 1 + shape.Intn(50)
		gap := 2 * int(time.Microsecond) / perQuantum // mean gap = quantum / perQuantum
		val := 0
		var tick func()
		tick = func() {
			if e.Rand().Intn(4) == 0 {
				val++
				dst := envs[(i+1+e.Rand().Intn(k-1))%k]
				src, v := i, val
				at := e.Now() + time.Duration(e.Rand().Intn(3000))
				e.PostTo(dst, at, func() {
					res.Logs[dst.gidx] = append(res.Logs[dst.gidx], groupTrace{Src: src, Val: v, At: dst.Now()})
				})
			}
			e.After(time.Duration(1+e.Rand().Intn(gap)), tick)
		}
		e.After(time.Duration(shape.Intn(2000)), tick)
	}
	g.RunUntil(300 * time.Microsecond)
	res.Events, res.Quanta = g.Events(), g.Stats().Quanta
	for i, e := range envs {
		res.Draws[i] = e.Rand().Int63()
	}
	g.Close()
	return res
}

// TestGroupHandoffStress runs random rings at several worker counts against
// the serial runner: delivery history, rng states, event and barrier counts
// must be equal. CI runs it under -race -cpu 1,2,4, which is what checks
// that publish → claim and finish → pending == 0 order a member's coroutine
// resumes from quantum to quantum.
func TestGroupHandoffStress(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ref := runRing(seed, 1)
		if ref.Events == 0 || ref.Quanta == 0 {
			t.Fatalf("seed %d: reference run did nothing", seed)
		}
		for _, workers := range []int{2, 3, 8} {
			if got := runRing(seed, workers); !reflect.DeepEqual(got, ref) {
				t.Errorf("seed %d workers %d: run differs from the serial runner (events %d vs %d, quanta %d vs %d)",
					seed, workers, got.Events, ref.Events, got.Quanta, ref.Quanta)
			}
		}
	}
}

// The two workloads of BenchmarkGroupQuantum, also used by the tests of the
// hand-off's idle side. Both keep every event on a 40ns grid, so barriers
// fall a fixed distance apart and a run of n*quantumSpan is n quanta.

// denseChains gives each of k members a callback chain firing every 40ns —
// 26 events per quantum — whose every 26th firing posts to the next member
// over a 2µs hop: every member is active in every quantum, as in a
// replicated topology under load. Barriers are 1040ns apart.
func denseChains(g *Group, k int) {
	envs := make([]*Env, k)
	for i := range envs {
		envs[i] = g.NewEnv(fmt.Sprintf("m%d", i), int64(i))
	}
	land := func() {}
	for i, e := range envs {
		next, fired := envs[(i+1)%k], 0
		var tick func()
		tick = func() {
			if fired++; fired%26 == 0 {
				e.PostTo(next, e.Now()+2*time.Microsecond, land)
			}
			e.After(40*time.Nanosecond, tick)
		}
		e.After(40*time.Nanosecond, tick)
	}
}

const denseSpan = 1040 * time.Nanosecond

// tokenRing hands one token around k members: the holder fires 25 events
// 40ns apart and the last posts the token to the next member over a 1.1µs
// hop. Exactly one member is active in every quantum, and quanta are 2.1µs
// apart.
func tokenRing(g *Group, k int) {
	envs := make([]*Env, k)
	take := make([]func(), k)
	for i := range envs {
		envs[i] = g.NewEnv(fmt.Sprintf("m%d", i), int64(i))
	}
	for i, e := range envs {
		next, left := (i+1)%k, 0
		var tick func()
		tick = func() {
			if left--; left > 0 {
				e.After(40*time.Nanosecond, tick)
				return
			}
			e.PostTo(envs[next], e.Now()+1100*time.Nanosecond, take[next])
		}
		take[i] = func() {
			left = 25
			e.After(40*time.Nanosecond, tick)
		}
	}
	envs[0].After(1100*time.Nanosecond, take[0])
}

const tokenSpan = 2100 * time.Nanosecond

// TestGroupSparseNeverShares: with one active member per quantum nothing is
// published and no helper goroutine is ever started, whatever Workers says.
func TestGroupSparseNeverShares(t *testing.T) {
	base := runtime.NumGoroutine()
	g := NewGroup(GroupConfig{Workers: 8})
	tokenRing(g, 4)
	g.RunUntil(1000 * tokenSpan)
	st := g.Stats()
	if st.Quanta != 1000 {
		t.Errorf("crossed %d barriers, want 1000", st.Quanta)
	}
	if st.Shared != 0 || st.Helped != 0 || st.Wakes != 0 || len(g.helpers) != 0 {
		t.Errorf("sparse group used the hand-off: %+v, %d helpers", st, len(g.helpers))
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines, started with %d", n, base)
	}
	g.Close()
}

// TestGroupNoHelperWithoutCPU: executors are capped by the CPUs the process
// can use, so at GOMAXPROCS 1 a dense group at Workers 8 is the serial loop.
func TestGroupNoHelperWithoutCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := NewGroup(GroupConfig{Workers: 8})
	denseChains(g, 3)
	g.RunUntil(1000 * denseSpan)
	if st := g.Stats(); st.Quanta != 1000 || st.Shared != 0 || len(g.helpers) != 0 {
		t.Errorf("GOMAXPROCS 1: %+v, %d helpers; want 1000 quanta, none shared, no helper", st, len(g.helpers))
	}
	g.Close()
}

// needTwoCPUs skips a test of the helper side where the executor cap leaves
// the coordinator alone.
func needTwoCPUs(t *testing.T) {
	t.Helper()
	if min(runtime.GOMAXPROCS(0), runtime.NumCPU()) < 2 {
		t.Skip("needs two usable CPUs")
	}
}

// waitParked polls until every helper of g has parked.
func waitParked(t *testing.T, g *Group) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, h := range g.helpers {
		for !h.parked.Load() {
			if time.Now().After(deadline) {
				t.Fatal("helper still spinning 5s after the last shared quantum")
			}
			runtime.Gosched()
		}
	}
}

// TestGroupDenseWake walks a helper through its states: started by the
// first shared quantum, parked once nothing has been in flight for
// spinBound loads, left asleep by multi-member runs shorter than denseRun,
// woken by a longer one.
func TestGroupDenseWake(t *testing.T) {
	needTwoCPUs(t)
	g := NewGroup(GroupConfig{Workers: 2})
	defer g.Close()
	a, b := g.NewEnv("a", 1), g.NewEnv("b", 2)
	var tickA, tickB func()
	tickA = func() { a.After(40*time.Nanosecond, tickA) }
	a.After(40*time.Nanosecond, tickA)
	var bUntil time.Duration
	tickB = func() {
		if b.Now() < bUntil {
			b.After(40*time.Nanosecond, tickB)
		}
	}
	// burst runs n quanta with both members active, then one with a alone,
	// which ends the run of multi-member quanta.
	burst := func(n int) {
		bUntil = g.Now() + time.Duration(n)*denseSpan
		b.After(40*time.Nanosecond, tickB)
		g.RunUntil(g.Now() + time.Duration(n+1)*denseSpan)
	}
	for i := 1; i <= 4; i++ {
		burst(denseRun - 1)
		if st := g.Stats(); st.Shared != int64(i*(denseRun-1)) || len(g.helpers) != 1 {
			t.Fatalf("after %d short bursts: %+v, %d helpers", i, st, len(g.helpers))
		}
		waitParked(t, g)
	}
	if st := g.Stats(); st.Wakes != 0 {
		t.Fatalf("runs shorter than denseRun woke the helper: %+v", st)
	}
	burst(2 * denseRun)
	if st := g.Stats(); st.Wakes < 1 {
		t.Fatalf("a dense run did not wake the parked helper: %+v", st)
	}
}

// TestGroupCloseReleasesHelpers closes a group in each state its helpers
// can be in: never started, spinning right after a dense phase, and parked
// after a long inline phase. Close returns once they have exited.
func TestGroupCloseReleasesHelpers(t *testing.T) {
	t.Run("never parallel", func(t *testing.T) {
		base := runtime.NumGoroutine()
		g := NewGroup(GroupConfig{Workers: 2, StartInline: true})
		denseChains(g, 3)
		g.RunUntil(100 * denseSpan)
		if len(g.helpers) != 0 {
			t.Errorf("inline group started %d helpers", len(g.helpers))
		}
		g.Close()
		waitGoroutines(t, base)
	})
	t.Run("spinning", func(t *testing.T) {
		needTwoCPUs(t)
		base := runtime.NumGoroutine()
		g := NewGroup(GroupConfig{Workers: 2})
		denseChains(g, 3)
		g.RunUntil(100 * denseSpan)
		if len(g.helpers) != 1 {
			t.Fatalf("dense group has %d helpers, want 1", len(g.helpers))
		}
		g.Close()
		waitGoroutines(t, base)
	})
	t.Run("parked", func(t *testing.T) {
		needTwoCPUs(t)
		base := runtime.NumGoroutine()
		g := NewGroup(GroupConfig{Workers: 2})
		denseChains(g, 3)
		g.RunUntil(100 * denseSpan)
		g.Serialize()
		g.RunUntil(g.Now() + 5000*denseSpan)
		waitParked(t, g)
		if st := g.Stats(); st.Shared > 101 {
			t.Errorf("serialized group kept sharing quanta: %+v", st)
		}
		g.Close()
		waitGoroutines(t, base)
	})
}
