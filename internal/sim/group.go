package sim

import (
	"math"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"
)

// Group runs several Envs side by side under one virtual clock: the
// conservative parallel engine. Time advances in lock-step quanta; within a
// quantum every member with due work runs its own event loop — on the
// coordinator goroutine when serialized, on a worker pool otherwise — and
// members exchange state only through PostTo mailboxes that are merged at
// the barrier between quanta in a fixed (time, sender index, send seq)
// order. Because each member's intra-quantum execution is single-threaded
// and deterministic, and the only inter-member channel is the
// deterministically merged mailbox, a same-seed group run is byte-identical
// regardless of GOMAXPROCS or the configured worker count. See DESIGN.md
// §11 for the protocol and the conduit inventory.
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
	qEnd    int64 // end of the executing quantum; read-only while workers run
	running bool
	closed  bool
	inline  bool // run quanta on the coordinator goroutine, env-index order
	sticky  bool // Serialize called: inline is permanent

	reqSerial   atomic.Bool // mode switches requested from process context,
	reqParallel atomic.Bool // applied at the next barrier

	started bool // worker pool spawned
	work    chan int
	wdone   chan struct{}

	posts  []post // merge scratch, reused across barriers
	active []int  // members with work this quantum, reused
}

// GroupConfig parameterizes NewGroup.
type GroupConfig struct {
	// Workers is the number of OS-thread-backed quantum executors; 1 (or 0)
	// yields the serial runner — same barriers, same merge, no worker pool.
	// The pool never exceeds the member count.
	Workers int
	// Quantum is the barrier interval and engine lookahead; 0 means 1µs.
	// It must not exceed the smallest cross-env delivery latency, or posts
	// are clamped to the next barrier (delivered late but still
	// deterministically).
	Quantum time.Duration
	// StartInline starts the group serialized. Bring-up code (cluster
	// Setup, role assignment) may touch several members' state directly
	// while inline, then release concurrency with Parallelize.
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
	return &Group{cfg: cfg, quantum: int64(cfg.Quantum), inline: cfg.StartInline}
}

// NewEnv creates a member environment. name labels the member in failure
// reports; seed feeds its private random source (members deliberately take
// explicit seeds so a single-member group can reproduce a standalone
// NewEnv(seed) run bit-for-bit). Member order is creation order and is the
// first mailbox merge tie-breaker, so create members in a fixed order.
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

// Now returns the group's virtual time (the last barrier reached).
func (g *Group) Now() time.Duration { return time.Duration(g.now) }

// Quantum returns the configured barrier interval.
func (g *Group) Quantum() time.Duration { return time.Duration(g.quantum) }

// Workers returns the configured worker count.
func (g *Group) Workers() int { return g.cfg.Workers }

// Inline reports whether quanta currently run serialized on the
// coordinator goroutine.
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

// Index returns e's member index within its group (0 for a standalone Env).
func (e *Env) Index() int { return e.gidx }

// Serialize permanently switches the group to inline execution at the next
// barrier. Once inline, quanta run every member on the coordinator
// goroutine in env-index order, so direct cross-env access is race-free and
// deterministic — this is the takeover mode: a failover rewires devices and
// re-binds the host stream across members, and the post-promotion host
// stream touches the winner's env on every write, far too hot for
// mailboxes. Callable from process context; the switch lands at the barrier
// ending the quantum that requested it.
func (g *Group) Serialize() { g.reqSerial.Store(true) }

// Parallelize releases a StartInline group to concurrent execution at the
// next barrier, once bring-up no longer needs direct cross-env access. It
// is a no-op after Serialize.
func (g *Group) Parallelize() { g.reqParallel.Store(true) }

// PostTo hands fn to dst's scheduler at absolute virtual time at: the group
// mailbox, and the only legal cross-env channel while members run
// concurrently. Inside a group run the post is buffered in the sender's
// outbox and injected at the next barrier in (time, sender index, send seq)
// order, so delivery order is independent of worker interleaving by
// construction. Outside a run — bring-up, teardown, a standalone Env —
// it schedules on dst directly, which is race-free because those phases are
// single-threaded. at is clamped to the end of the executing quantum; posts
// to a closed member are dropped.
//
//xssd:conduit group mailbox: fn runs in dst's own Env at a barrier-merged instant
func (e *Env) PostTo(dst *Env, at time.Duration, fn func()) {
	t := int64(at)
	g := e.grp
	if dst == e || g == nil || dst.grp != g || !g.running {
		if dst.closed {
			return
		}
		dst.schedule(t, nil, fn)
		return
	}
	if t < g.qEnd {
		t = g.qEnd
	}
	e.postSeq++
	e.outbox = append(e.outbox, post{at: t, src: e.gidx, dst: dst.gidx, seq: e.postSeq, fn: fn})
}

// nextEventAt returns the earliest pending event time of e, if any.
func (e *Env) nextEventAt() (int64, bool) {
	at := int64(math.MaxInt64)
	ok := false
	if e.nowqPos < len(e.nowq) {
		at, ok = e.nowq[e.nowqPos].at, true
	}
	if len(e.heap) > 0 && (!ok || e.heap[0].at < at) {
		at, ok = e.heap[0].at, true
	}
	return at, ok
}

// hasEventBefore reports whether e has work due at or before t.
func (e *Env) hasEventBefore(t int64) bool {
	if e.nowqPos < len(e.nowq) {
		return true
	}
	return len(e.heap) > 0 && e.heap[0].at <= t
}

// RunUntil drives every member until virtual time t, barrier by barrier.
// It returns the number of processes blocked on Signals across all
// members. Quanta are not grid-aligned: each barrier fast-forwards to one
// quantum past the earliest pending event, so idle stretches cost nothing.
// If any member's process panicked during a quantum, the group is closed
// (releasing every parked goroutine and the worker pool) and the
// lowest-index member's *ProcPanic is rethrown here — the same failure
// regardless of worker count.
func (g *Group) RunUntil(t time.Duration) int {
	if g.closed {
		panic("sim: Run on closed Group")
	}
	if g.running {
		panic("sim: Group.Run called reentrantly")
	}
	g.running = true
	defer func() { g.running = false }()
	until := int64(t)
	for {
		g.deliverPosts()
		g.applyModeRequests()
		next := int64(math.MaxInt64)
		for _, e := range g.envs {
			if e.closed {
				continue
			}
			if at, ok := e.nextEventAt(); ok && at < next {
				next = at
			}
		}
		if next > until {
			break
		}
		qEnd := until
		if q := next + g.quantum; q < qEnd {
			qEnd = q
		}
		g.qEnd = qEnd
		g.active = g.active[:0]
		for i, e := range g.envs {
			if !e.closed && e.hasEventBefore(qEnd) {
				g.active = append(g.active, i)
			}
		}
		if g.inline || g.cfg.Workers == 1 || len(g.active) == 1 {
			for _, i := range g.active {
				g.envs[i].runQuantum(qEnd)
			}
		} else {
			g.ensureWorkers()
			for _, i := range g.active {
				g.work <- i
			}
			for range g.active {
				<-g.wdone
			}
		}
		g.now = qEnd
		if f := g.firstFailure(); f != nil {
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
// or a pool worker, a different one from quantum to quantum but never two
// at once: the barrier orders them, which is all iter.Pull asks. A panic
// from a scheduler-context callback is captured like a process panic, so
// failures cross the worker boundary as data instead of crashing the pool.
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
// destination's seq assignment — independent of which workers ran which
// members.
func (g *Group) deliverPosts() {
	buf := g.posts[:0]
	for _, e := range g.envs {
		buf = append(buf, e.outbox...)
		for i := range e.outbox {
			e.outbox[i] = post{}
		}
		e.outbox = e.outbox[:0]
	}
	if len(buf) > 1 {
		sort.Slice(buf, func(i, j int) bool {
			a, b := &buf[i], &buf[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.seq < b.seq
		})
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

// applyModeRequests lands Serialize/Parallelize requests at a barrier.
func (g *Group) applyModeRequests() {
	if g.reqSerial.Swap(false) {
		g.inline = true
		g.sticky = true
	}
	if g.reqParallel.Swap(false) && !g.sticky {
		g.inline = false
	}
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

// ensureWorkers spawns the quantum-executor pool on first concurrent use.
// Workers exit when Close closes the work channel.
func (g *Group) ensureWorkers() {
	if g.started {
		return
	}
	g.started = true
	n := g.cfg.Workers
	if n > len(g.envs) {
		n = len(g.envs)
	}
	g.work = make(chan int)
	// Buffered so a worker never blocks reporting completion while the
	// coordinator is still handing out this quantum's members — with fewer
	// workers than members that would deadlock the barrier.
	g.wdone = make(chan struct{}, len(g.envs))
	for w := 0; w < n; w++ {
		go func() {
			for i := range g.work {
				g.envs[i].runQuantum(g.qEnd)
				g.wdone <- struct{}{}
			}
		}()
	}
}

// Close closes every member (releasing all parked process goroutines) and
// shuts down the worker pool. Like Env.Close it is terminal and must be
// called from the driving goroutine, never from process context.
func (g *Group) Close() {
	if g.closed {
		return
	}
	if g.running {
		panic("sim: Group.Close during Run")
	}
	g.closed = true
	if g.started {
		close(g.work)
	}
	for _, e := range g.envs {
		e.Close()
	}
}
