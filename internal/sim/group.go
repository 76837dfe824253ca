package sim

import (
	"cmp"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Group runs several Envs side by side under one virtual clock: the
// conservative parallel engine. Time advances in lock-step quanta; within a
// quantum every member with due work runs its own event loop — on the
// coordinator goroutine, or on a helper goroutine that claimed the member
// (shareQuantum) — and members exchange state only through PostTo mailboxes
// that are merged at the barrier between quanta in a fixed (time, sender
// index, send seq) order. Because each member's intra-quantum execution is
// single-threaded and deterministic, and the only inter-member channel is
// the deterministically merged mailbox, a same-seed group run is
// byte-identical regardless of GOMAXPROCS or the configured worker count.
// See DESIGN.md §11 for the protocol and the conduit inventory.
//
// The quantum is the engine's lookahead: a post whose delivery time falls
// inside the quantum that produced it is clamped to the quantum's end, so
// full timing fidelity requires every cross-env latency (the NTB hop, for
// instance) to be at least one quantum. The default 1µs quantum sits under
// the 1.1µs NTB hop; topologies with no cross-env traffic can raise it
// freely.
type Group struct {
	cfg     GroupConfig
	quantum int64
	envs    []*Env
	now     int64
	qEnd    int64 // end of the executing quantum; read-only while members run
	cur     *Env  // the member the coordinator runs alone, else nil: the stray-touch reference
	running bool
	closed  bool
	inline  bool // run quanta on the coordinator goroutine, env-index order

	reqParallel atomic.Bool // Parallelize, requested from process context and applied at the next barrier

	posts  []post // merge scratch, reused across barriers
	active []int  // members with work this quantum, reused; read-only while members run

	// The quantum hand-off (shareQuantum; DESIGN §11 "The hand-off").
	executors int            // goroutines that may run members during this RunUntil, the coordinator included
	dense     int            // consecutive quanta with two or more active members
	helpers   []*parker      // one per helper goroutine, in start order
	helping   sync.WaitGroup // Close waits on it for the helpers to exit
	coord     parker         // the coordinator waiting for a quantum's last member
	stop      atomic.Bool    // Close: helpers exit
	todo      atomic.Int64   // members of the published quantum nobody has claimed yet
	pending   atomic.Int64   // members of the published quantum that have not finished

	stats  GroupStats   // the coordinator's counters; Helped stays zero here
	helped atomic.Int64 // written by helpers
}

// GroupConfig parameterizes NewGroup.
type GroupConfig struct {
	// Workers is the most goroutines that run members within one quantum,
	// the coordinator (RunUntil's caller) included: Workers-1 helpers beside
	// it. 1 (or 0) yields the serial runner — same barriers, same merge, no
	// helper. The count in use is further capped by the member count and by
	// the CPUs the process can use (GOMAXPROCS, NumCPU): an executor without
	// a CPU of its own only adds hand-offs. It never reaches virtual time.
	Workers int
	// Quantum is the barrier interval and engine lookahead; 0 means 1µs.
	// It must not exceed the smallest cross-env delivery latency, or posts
	// are clamped to the next barrier (delivered late but still
	// deterministically).
	Quantum time.Duration
	// StartInline starts the group inline: each quantum is one instant,
	// every member reads it as now, and the coordinator runs the members
	// in index order. Bring-up code (cluster Setup, role assignment) may
	// touch several members' state directly while inline, then release
	// concurrency with Parallelize; a run whose takeover rewires members
	// directly stays inline to the end.
	StartInline bool
}

// post is one mailbox entry: fn runs in envs[dst] at virtual time at.
// (at, src, seq) is the barrier merge key.
type post struct {
	at  int64
	src int
	dst int
	seq int64
	fn  func()
}

// NewGroup returns an empty group. Add members with NewEnv before the
// first RunUntil.
func NewGroup(cfg GroupConfig) *Group {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = time.Microsecond
	}
	return &Group{
		cfg:     cfg,
		quantum: int64(cfg.Quantum),
		inline:  cfg.StartInline,
		coord:   parker{wake: make(chan struct{}, 1)},
	}
}

// NewEnv creates a member environment. name labels the member in failure
// reports; seed feeds its private random source (members deliberately take
// explicit seeds so a single-member group can reproduce a standalone
// NewEnv(seed) run bit-for-bit). Member order is creation order and is the
// first mailbox merge tie-breaker, so create members in a fixed order.
// A NewEnv on a closed group or during a run is API misuse and panics; no
// caller reaches it, for each adds members from the driving goroutine while
// it builds the topology, before the first run and any deferred Close.
func (g *Group) NewEnv(name string, seed int64) *Env {
	if g.closed {
		panic("sim: Group.NewEnv on closed Group")
	}
	if g.running {
		panic("sim: Group.NewEnv during Run")
	}
	e := NewEnv(seed)
	e.name = name
	e.grp = g
	e.gidx = len(g.envs)
	e.now = g.now
	g.envs = append(g.envs, e)
	return e
}

// Envs returns the member environments in index order.
func (g *Group) Envs() []*Env { return append([]*Env(nil), g.envs...) }

// MemberSeed is the seed harnesses give member idx of a group whose run is
// seeded with seed, so a multi-member run is fully determined by (seed,
// shape): member 0 takes the run's seed itself — a lone-member group then
// reproduces NewEnv(seed) — and every later member a splitmix64 finalizer
// of (seed, idx).
func MemberSeed(seed int64, idx int) int64 {
	if idx == 0 {
		return seed
	}
	z := uint64(seed) + uint64(idx+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Now returns the group's virtual time (the last barrier reached).
func (g *Group) Now() time.Duration { return time.Duration(g.now) }

// GroupStats counts the quantum hand-off and stray touches. Quanta and
// Stray repeat exactly for a seed. Shared, Helped and Wakes depend on the
// host — how many CPUs there are and which goroutine got to a member first
// — so they must never be registered in obs, folded into a fingerprint or
// compared across runs; they exist for tests and benchmarks of the
// hand-off itself.
type GroupStats struct {
	Quanta int64 // barriers crossed
	Shared int64 // quanta published for helpers to claim from
	Helped int64 // member-quanta a helper ran
	Wakes  int64 // wake tokens sent to parked helpers
	Stray  int64 // schedules and Link occupations around the conduits (Env.touched)
}

// Stats returns the hand-off counters. Call it between runs, from the
// driving goroutine.
func (g *Group) Stats() GroupStats {
	st := g.stats
	st.Helped = g.helped.Load()
	return st
}

// Inline reports whether quanta currently run inline: one instant each, on
// the coordinator goroutine.
func (g *Group) Inline() bool { return g.inline }

// Events returns the total events dispatched across all members.
func (g *Group) Events() int64 {
	var n int64
	for _, e := range g.envs {
		n += e.events
	}
	return n
}

// Group returns the group e belongs to, or nil for a standalone Env.
func (e *Env) Group() *Group { return e.grp }

// touched counts a schedule or Link occupation on e made while a Workers-1
// group runs another of its members in a parallel quantum: state reached
// around PostTo and the NTB slot ring, which at more executors would race
// (DESIGN §11). Inline quanta, where such a touch is exact, do not count.
//
//xssd:hotpath
func (e *Env) touched() {
	if g := e.grp; g != nil && g.cur != nil && g.cur != e && !g.inline && g.cfg.Workers < 2 {
		g.stats.Stray++
	}
}

// Parallelize releases a StartInline group to concurrent execution at the
// next barrier, once bring-up no longer needs direct cross-env access. The
// switch is one way: a run that touches members directly after bring-up (a
// failover takeover) never calls it.
func (g *Group) Parallelize() { g.reqParallel.Store(true) }

// PostTo hands fn to dst's scheduler at absolute virtual time at: the group
// mailbox, and the only legal cross-env channel while members run
// concurrently. Inside a group run the post is buffered in the sender's
// outbox and injected at the next barrier in (time, sender index, send seq)
// order, so delivery order is independent of worker interleaving by
// construction. Outside a run — bring-up, teardown, a standalone Env —
// it schedules on dst directly, which is race-free because those phases are
// single-threaded. at is clamped to the end of the executing quantum (to
// dst's clock outside a run); posts to a closed member are dropped.
//
// PostTo returns the instant fn runs at — at after the clamp — so a sender
// that pairs the post with local bookkeeping (a completion callback, the
// reuse stamp of the buffer fn reads) keys it to the delivery, not to the
// request: with a cross-env latency under one quantum the two differ.
//
//xssd:conduit group mailbox: fn runs in dst's own Env at a barrier-merged instant
func (e *Env) PostTo(dst *Env, at time.Duration, fn func()) time.Duration {
	t := int64(at)
	g := e.grp
	if dst == e || g == nil || dst.grp != g || !g.running {
		if t < dst.now {
			t = dst.now
		}
		if !dst.closed {
			dst.schedule(t, nil, fn)
		}
		return time.Duration(t)
	}
	if t < g.qEnd {
		t = g.qEnd
	}
	e.postSeq++
	e.outbox = append(e.outbox, post{at: t, src: e.gidx, dst: dst.gidx, seq: e.postSeq, fn: fn})
	return time.Duration(t)
}

// Settled returns the group's settled horizon: the start of the quantum now
// executing (the last barrier reached), before which every member has
// dispatched every event. A post whose delivery instant is strictly before
// it has run, so whatever its fn read may be rewritten by the sender — the
// release rule for state lent across members (ntb's chunk slots). It is a
// function of virtual time alone, the same at every worker count, and is
// written only between quanta, so members may read it while they run. For an
// Env outside a group it is 0: nothing is ever known settled.
func (e *Env) Settled() time.Duration {
	if e.grp == nil {
		return 0
	}
	return time.Duration(e.grp.now)
}

// nextEventAt returns the earliest pending event time of e, if any.
func (e *Env) nextEventAt() (int64, bool) {
	at := int64(math.MaxInt64)
	h, ok := e.nowq.Peek()
	if ok {
		at = h.at
	}
	if len(e.heap) > 0 && (!ok || e.heap[0].at < at) {
		at, ok = e.heap[0].at, true
	}
	return at, ok
}

// hasEventBefore reports whether e has work due at or before t.
func (e *Env) hasEventBefore(t int64) bool {
	if e.nowq.Len() > 0 {
		return true
	}
	return len(e.heap) > 0 && e.heap[0].at <= t
}

// next returns the earliest pending event time across the live members,
// or math.MaxInt64 when none has an event.
func (g *Group) next() int64 {
	next := int64(math.MaxInt64)
	for _, e := range g.envs {
		if e.closed {
			continue
		}
		if at, ok := e.nextEventAt(); ok && at < next {
			next = at
		}
	}
	return next
}

// Idle reports whether no live member has an event pending, so running the
// group any further changes nothing: a process blocked on a Signal stays
// blocked, since only an event can broadcast it. Call it between runs, from
// the driving goroutine; RunUntil leaves no post undelivered.
func (g *Group) Idle() bool { return g.next() == math.MaxInt64 }

// RunUntil drives every member until virtual time t, barrier by barrier.
// It returns the number of processes blocked on Signals across all
// members. Quanta are not grid-aligned: each barrier fast-forwards to one
// quantum past the earliest pending event, so idle stretches cost nothing.
// If any member's process panicked during a quantum, the group is closed
// (releasing every parked goroutine and the helpers) and the
// lowest-index member's *ProcPanic is rethrown here — the same failure
// regardless of worker count.
// A RunUntil on a closed group or from process context is API misuse and
// panics; no caller reaches it, for owners drive a group from the goroutine
// that built it and close it in deferred teardown (none recovers a rethrown
// *ProcPanic to run on), and processes call only Parallelize and Inline.
func (g *Group) RunUntil(t time.Duration) int {
	if g.closed {
		panic("sim: Run on closed Group")
	}
	if g.running {
		panic("sim: Group.Run called reentrantly")
	}
	g.running = true
	defer func() { g.running = false }()
	// Members may have been added since the last run.
	g.executors = min(g.cfg.Workers, len(g.envs), runtime.GOMAXPROCS(0), runtime.NumCPU())
	until := int64(t)
	for {
		g.deliverPosts()
		// Parallelize lands here; a request is rare, so load before swapping.
		if g.reqParallel.Load() && g.reqParallel.Swap(false) {
			g.inline = false
		}
		next := g.next()
		if next > until {
			break
		}
		qEnd := min(until, next+g.quantum)
		if g.inline {
			// One clock: the quantum is the earliest pending instant and
			// every member reads it, so a direct touch across members
			// schedules, and occupies a Link, at the caller's time.
			qEnd = next
			for _, e := range g.envs {
				e.now = next
			}
		}
		g.qEnd = qEnd
		g.active = g.active[:0]
		for i, e := range g.envs {
			if !e.closed && e.hasEventBefore(qEnd) {
				g.active = append(g.active, i)
			}
		}
		if g.inline || g.executors < 2 || len(g.active) == 1 {
			g.dense = 0
			for _, i := range g.active {
				g.cur = g.envs[i]
				g.cur.runQuantum(qEnd)
			}
			g.cur = nil
		} else {
			g.shareQuantum()
		}
		g.stats.Quanta++
		g.now = qEnd
		if f := g.firstFailure(); f != nil {
			// This panic is a member's own failure carried to the driving
			// goroutine, not a new one, as Env.rethrow's is for a lone
			// Env: runQuantum turned a process's or a scheduler callback's
			// panic into data, and this rethrows it. It fires only when
			// such a panic came first, so no caller reaches it on its own;
			// each site that can panic inside a process is audited where it
			// stands. Closing first releases every parked goroutine and the
			// helpers, so the rethrow leaks none of them.
			g.running = false
			g.Close()
			panic(f)
		}
	}
	g.now = until
	blocked := 0
	for _, e := range g.envs {
		if e.closed {
			continue
		}
		if until > e.now {
			e.now = until
		}
		blocked += e.blocked
	}
	return blocked
}

// runQuantum drives one member through a single quantum. The member's
// process coroutines are resumed by the calling goroutine — the coordinator
// or a helper, a different one from quantum to quantum but never two at
// once: the hand-off's atomics order them (shareQuantum), which is all
// iter.Pull asks. A panic from a scheduler-context callback is captured
// like a process panic, so failures cross the goroutine boundary as data
// instead of killing a helper.
func (e *Env) runQuantum(qEnd int64) {
	defer func() {
		if r := recover(); r != nil && e.fail == nil {
			e.fail = &ProcPanic{Env: e.name, Proc: "(scheduler callback)", Value: r, Stack: debug.Stack()}
		}
	}()
	e.run(qEnd)
}

// deliverPosts merges every member's outbox and injects the posts into
// their destination queues. It runs between quanta on the coordinator
// goroutine, so the injections are single-threaded; the (time, sender
// index, send seq) sort makes the injection order — and therefore each
// destination's seq assignment — independent of which goroutine ran which
// member. The key is unique, so any comparison sort yields the same order.
func (g *Group) deliverPosts() {
	buf := g.posts[:0]
	for _, e := range g.envs {
		buf = append(buf, e.outbox...)
		for i := range e.outbox {
			e.outbox[i] = post{}
		}
		e.outbox = e.outbox[:0]
	}
	if len(buf) > 1 && !slices.IsSortedFunc(buf, mergeOrder) {
		slices.SortFunc(buf, mergeOrder)
	}
	for i := range buf {
		p := &buf[i]
		if dst := g.envs[p.dst]; !dst.closed {
			dst.schedule(p.at, nil, p.fn)
		}
		*p = post{}
	}
	g.posts = buf[:0]
}

// mergeOrder is the barrier merge key: (time, sender index, send seq).
func mergeOrder(a, b post) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	if a.src != b.src {
		return cmp.Compare(a.src, b.src)
	}
	return cmp.Compare(a.seq, b.seq)
}

// firstFailure returns the lowest-index member's captured panic, if any.
// Each member's quantum execution is deterministic in isolation, so the set
// of failing members in a quantum — and hence this choice — does not depend
// on worker scheduling.
func (g *Group) firstFailure() *ProcPanic {
	for _, e := range g.envs {
		if e.fail != nil {
			return e.fail
		}
	}
	return nil
}

// The hand-off's two tunables. Neither reaches virtual time. The readings
// are stackbench runs on a 2-vCPU host with the constant patched, counted
// per repetition (EXPERIMENTS.md "Quantum hand-off (PR 20)").
const (
	// spinBound is how many loads a helper spends with nothing published and
	// nothing in flight before it parks, and how many the coordinator spends
	// on a quantum's last member before it does. A park costs the helper
	// several quanta of absence, so the bound has to outlast the barrier's
	// serial section and the collector's pauses: on tpcc_repl (133 081
	// quanta, every one shared) 1 000 loads park the helper 7 000 times and
	// read 26-28 s/vs, 4 000 park it 4 500 times and read 25-26 — both
	// slower than the channel hand-off this replaced — 30 000 park it 100
	// times and read 16-20, 200 000 park it 8 times for the same wall. On
	// the xbench cell pargroup/repl3/sw2 (19 820 shared quanta of ~300
	// events) 30 000 still parks it 160-195 times and 100 000 25-32 times,
	// again for the same wall; past that the only effect is a helper that
	// spins longer after the last dense quantum.
	spinBound = 100_000
	// denseRun is how many consecutive quanta must have had two or more
	// active members before the coordinator pays a futex wake for a parked
	// helper; below it the coordinator drains the quantum itself, as the
	// serial runner would. On tpcc_shard4 (252 881 quanta, 10 780 shared,
	// scattered) 1 wakes a helper 4 400 times to run 2 500 members and
	// reads 0.83 s/vs, 2 wakes it 1 200 times for 0.77, 8 wakes it 3 times
	// for 0.75, 64 never; tpcc_repl cannot tell them apart.
	denseRun = 8
)

// shareQuantum runs a quantum with two or more active members. The
// coordinator publishes it — active and qEnd are already in place, then
// pending, then todo last — and every executor claims members by counting
// todo down: a claim k >= 0 was made on the quantum now published and owns
// active[len(active)-1-k], anything below zero means there is nothing left.
// Only a claim entitles an executor to read active, qEnd and the member; a
// claimed member holds pending above zero until its executor is done with
// it, and the coordinator does not leave — so rewrites nothing — before
// pending reads zero. A member's coroutines are thereby resumed in publish
// → claim → finish → pending == 0 order from one quantum to the next, each
// arrow an atomic operation observing the one before it.
//
// The coordinator keeps active[0] for itself without a claim: in every
// topology in the tree that is the host member, the longest of the quantum,
// and the coordinator is the one executor known to be running right now.
func (g *Group) shareQuantum() {
	for len(g.helpers) < g.executors-1 {
		h := &parker{wake: make(chan struct{}, 1)}
		g.helpers = append(g.helpers, h)
		g.helping.Add(1)
		go g.help(h)
	}
	n := len(g.active)
	g.pending.Store(int64(n))
	g.todo.Store(int64(n - 1))
	g.stats.Shared++
	if g.dense++; g.dense >= denseRun {
		// Keep the first n-1 helpers awake; the rest spin down and park.
		need := n - 1
		for _, h := range g.helpers {
			if need == 0 {
				break
			}
			if h.unpark() {
				g.stats.Wakes++
			}
			need--
		}
	}
	g.envs[g.active[0]].runQuantum(g.qEnd)
	g.pending.Add(-1)
	g.claimMembers()
	for spins := 0; g.pending.Load() != 0; spins++ {
		if spins == spinBound {
			// The helper holding the last member lost its CPU. A token may
			// be left over from a helper that saw an earlier quantum's
			// pending reach zero late, hence the loop.
			g.coord.park(func() bool { return g.pending.Load() == 0 })
			spins = 0
		}
	}
}

// claimMembers runs members of the published quantum until none is left
// unclaimed and returns how many it ran.
func (g *Group) claimMembers() int {
	ran := 0
	for {
		k := g.todo.Add(-1)
		if k < 0 {
			return ran
		}
		g.envs[g.active[len(g.active)-1-int(k)]].runQuantum(g.qEnd)
		ran++
		if g.pending.Add(-1) == 0 {
			g.coord.unpark()
		}
	}
}

// help is a helper goroutine's body. While a quantum is in flight on
// another executor the next publish is at most that member away, so the
// wait is not charged; with nothing in flight — the barrier's serial
// section, an inline phase, a stretch of single-member quanta — it spends
// spinBound loads and parks until the coordinator sees a dense phase.
func (g *Group) help(h *parker) {
	defer g.helping.Done()
	idle := 0
	for {
		switch {
		case g.todo.Load() > 0:
			if ran := g.claimMembers(); ran > 0 {
				g.helped.Add(int64(ran))
				idle = 0
			}
		case g.pending.Load() != 0:
			// In flight elsewhere: not charged, and not a reason to start
			// the count over either — only a claim is.
		case g.stop.Load():
			return
		default:
			if idle++; idle == spinBound {
				h.park(g.stop.Load)
				idle = 0
			}
		}
	}
}

// parker lets one goroutine sleep until another wakes it, with no lost
// wake-up and no blocking on the waking side. The sleeper raises parked and
// then looks at its condition once more; the waker changes the condition
// and then looks at parked. Whoever lowers the flag owns the one token, so
// the cap-1 channel never holds two.
type parker struct {
	parked atomic.Bool
	wake   chan struct{}
}

// park blocks until unpark, unless ready already holds.
func (p *parker) park(ready func() bool) {
	p.parked.Store(true)
	if ready() && p.parked.CompareAndSwap(true, false) {
		return
	}
	<-p.wake
}

// unpark wakes the sleeper if there is one and reports whether it did.
func (p *parker) unpark() bool {
	if p.parked.Load() && p.parked.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
		return true
	}
	return false
}

// Close closes every member (releasing all parked process goroutines) and
// returns once the helpers, spinning or parked, have exited. Like Env.Close
// it is terminal and must be called from the driving goroutine, never from
// process context: a Close during a run is API misuse and panics, which no
// caller reaches (owners close in deferred teardown).
func (g *Group) Close() {
	if g.closed {
		return
	}
	if g.running {
		panic("sim: Group.Close during Run")
	}
	g.closed = true
	g.stop.Store(true)
	for _, h := range g.helpers {
		h.unpark()
	}
	g.helping.Wait()
	for _, e := range g.envs {
		e.Close()
	}
}
