// Package sim implements a deterministic, process-based discrete-event
// simulation engine. It is the substrate that stands in for the paper's
// hardware: every component of the simulated X-SSD device, the PCIe
// subsystem, and the database workers runs as a sim process in virtual time.
//
// Processes are coroutines (iter.Pull) the scheduler switches to and from
// directly: exactly one process runs at any instant, and control returns to
// the scheduler whenever a process blocks (Sleep, Wait, Transfer, ...).
// Event ordering is total — (virtual time, sequence number) — so runs are
// bit-for-bit reproducible for a given seed, and shared state needs no
// locking.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"time"

	"xssd/internal/fifo"
	"xssd/internal/pool"
)

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv, add processes with Go, and drive it with Run or
// RunUntil.
//
// The event queue is split in two. Events due strictly after the current
// instant live in a typed binary min-heap ordered by (time, seq). Events
// due now — Yield, After(0), Signal wake-ups — go to a fifo.Queue
// instead, skipping the heap entirely; both containers reuse their backing
// arrays, so steady-state scheduling does not allocate. Dispatching heap
// events due at the current instant before FIFO events preserves the
// engine's total (time, seq) order: every heap entry due at time t was
// scheduled before the clock reached t, so it always carries a smaller seq
// than any same-instant FIFO entry (which was enqueued at t). See
// DESIGN.md §9.
type Env struct {
	now     int64 // virtual time in nanoseconds
	seq     int64 // tie-breaker for events at the same instant
	events  int64 // dispatched events, for throughput accounting
	resumes int64 // those of them that resumed a process
	heap    []event
	nowq    fifo.Queue[event] // events due at the current instant
	rng     *rand.Rand
	blocked int // processes waiting on a Signal (no pending event)
	running bool
	closed  bool

	carriers []*carrier // every coroutine made for this Env (see Close)
	//xssd:pool put
	idle pool.Free[*carrier] // carriers whose process has finished

	name string     // member name within a Group ("" for a standalone Env)
	fail *ProcPanic // first captured process/callback panic (see ProcPanic)

	// Group membership (nil/zero for a standalone Env).
	grp     *Group
	gidx    int    // index within grp.envs; the first merge tie-breaker
	postSeq int64  // per-sender sequence for outbox posts
	outbox  []post // cross-env posts buffered until the next barrier

	attachments map[string]interface{} // per-env services (see Attach)
}

type event struct {
	at   int64
	seq  int64
	proc *Proc  // process to resume, or
	fn   func() // callback to invoke inline
}

// heapPush inserts ev into the time-ordered heap (sift-up, no boxing).
//
//xssd:hotpath
func (e *Env) heapPush(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].at < h[i].at || (h[parent].at == h[i].at && h[parent].seq < h[i].seq) {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	e.heap = h
}

// heapPop removes and returns the earliest (time, seq) heap event.
//
//xssd:hotpath
func (e *Env) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop fn/proc references
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && (h[l].at < h[min].at || (h[l].at == h[min].at && h[l].seq < h[min].seq)) {
			min = l
		}
		if r < n && (h[r].at < h[min].at || (h[r].at == h[min].at && h[r].seq < h[min].seq)) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	e.heap = h
	return top
}

// NewEnv returns an empty environment whose random source is seeded with
// seed. Two environments with the same seed and the same process program
// produce identical traces.
func NewEnv(seed int64) *Env {
	return &Env{rng: rand.New(rand.NewSource(seed))}
}

// Name returns the member name a Group gave the environment; "" for a
// standalone Env.
func (e *Env) Name() string { return e.name }

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return time.Duration(e.now) }

// Events returns the number of events dispatched so far — process resumes
// plus scheduler callbacks. It is the denominator-free workload measure the
// perf suite divides by wall time to get events/second.
func (e *Env) Events() int64 { return e.events }

// Switches returns how many of those events resumed a process — a coroutine
// switch there and one back — rather than running a callback inline. A
// per-item path that stays callbacks end to end leaves it unchanged.
func (e *Env) Switches() int64 { return e.resumes }

// Rand returns the environment's deterministic random source. It must only
// be used from process context (calls are serialized by the scheduler).
func (e *Env) Rand() *rand.Rand { return e.rng }

// Attach stores v under key on the environment. It is the hook for per-env
// services (the metrics registry, for example) that deep call sites need to
// reach without threading a handle through every constructor. Attachments
// share the environment's lifetime, so they are garbage-collected with it —
// unlike a process-global map keyed by *Env, which would pin every
// environment ever created. Like all Env state, attachments are accessed
// only under the scheduler's serialization; there is no locking.
func (e *Env) Attach(key string, v interface{}) {
	if e.attachments == nil {
		e.attachments = make(map[string]interface{})
	}
	e.attachments[key] = v
}

// Attachment returns the value stored under key by Attach, or nil.
func (e *Env) Attachment(key string) interface{} { return e.attachments[key] }

//xssd:hotpath
func (e *Env) schedule(at int64, p *Proc, fn func()) {
	e.touched()
	e.seq++
	if at <= e.now {
		// Due at the current instant: FIFO order is seq order, no heap
		// traffic.
		e.nowq.Push(event{at: e.now, seq: e.seq, proc: p, fn: fn})
		return
	}
	e.heapPush(event{at: at, seq: e.seq, proc: p, fn: fn})
}

// At schedules fn to run at absolute virtual time t (clamped to now).
// fn runs in scheduler context and must not block.
func (e *Env) At(t time.Duration, fn func()) { e.schedule(int64(t), nil, fn) }

// After schedules fn to run d from now. fn runs in scheduler context and
// must not block.
func (e *Env) After(d time.Duration, fn func()) { e.schedule(e.now+int64(d), nil, fn) }

// Proc is a simulated process. All its methods must be called from within
// the process's own function.
type Proc struct {
	env  *Env
	name string
	c    *carrier // the coroutine running this process
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.Now() }

// procKilled unwinds a process whose carrier Env.Close stopped; the
// carrier recovers it.
type procKilledT struct{}

var procKilled any = procKilledT{}

// ProcPanic carries a panic out of a simulated process. The carrier
// captures the panic on the process's coroutine, returns to the scheduler
// normally (so Close still releases every parked process and no goroutine
// leaks), and the scheduler rethrows the ProcPanic on the driving goroutine
// — the caller of Run/RunUntil, or of Group.RunUntil when the process ran
// inside a group quantum on a worker.
type ProcPanic struct {
	Env   string // member name of the Env ("" for a standalone Env)
	Proc  string // process name, or "(scheduler callback)" for an fn panic
	Value any    // the original panic value
	Stack []byte // stack of the panicking goroutine at capture time
}

func (pp *ProcPanic) Error() string {
	where := pp.Proc
	if pp.Env != "" {
		where = pp.Env + "/" + pp.Proc
	}
	return fmt.Sprintf("sim: process %s panicked: %v\n%s", where, pp.Value, pp.Stack)
}

// carrier is a coroutine that runs processes, one after another. The
// scheduler resumes it with next, the process it carries blocks with yield;
// both are direct switches between the two goroutines, with no run queue in
// between. When its process finishes the carrier parks itself on the Env's
// idle stack and the next Go reuses it, so a short-lived process costs a
// Proc, not a coroutine. Which carrier runs which process never reaches
// virtual time. See DESIGN.md §9.
type carrier struct {
	env   *Env
	p     *Proc // the process assigned by Go; nil while idle
	fn    func(p *Proc)
	next  func() (struct{}, bool) // scheduler side: run until the next yield
	stop  func()                  // scheduler side: make yield report false
	yield func(struct{}) bool     // process side: back to the scheduler
}

// Go starts fn as a new simulated process at the current virtual time.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{}
	e.start(p, name, fn)
	return p
}

// start runs fn as the new process p, which the caller allocated, from the
// current virtual time: a carrier takes it, and its first dispatch is
// scheduled at (now, next seq).
// A start on a closed Env is API misuse and panics; no caller reaches it,
// for Close is terminal and owners call it in deferred teardown, after the
// last run, when nothing starts processes any more.
func (e *Env) start(p *Proc, name string, fn func(p *Proc)) {
	if e.closed {
		panic("sim: Go on closed Env")
	}
	c := e.idle.Get()
	if c == nil {
		c = &carrier{env: e}
		// The coroutine starts at its first next, which is the process's
		// first dispatch.
		c.next, c.stop = iter.Pull(c.loop)
		e.carriers = append(e.carriers, c)
	}
	*p = Proc{env: e, name: name, c: c}
	c.p, c.fn = p, fn
	e.schedule(e.now, p, nil)
}

// loop is the carrier's body: run the assigned process, go idle, wait to be
// handed the next one. It returns when Close stops the carrier.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.run()
		c.p, c.fn = nil, nil
		c.env.idle.Put(c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the assigned process to completion. A panic must not leave
// the coroutine — iter.Pull would rethrow it at the scheduler's next — so
// it is captured here per process and travels as Env.fail; the carrier
// itself stays usable.
func (c *carrier) run() {
	defer func() {
		e := c.env
		if r := recover(); r != nil && r != procKilled && e.fail == nil {
			e.fail = &ProcPanic{Env: e.name, Proc: c.p.name, Value: r, Stack: debug.Stack()}
		}
	}()
	c.fn(c.p)
}

// resume switches to p's carrier until the process blocks or finishes.
// Resuming a finished process is a scheduler bug, not a caller's error, and
// panics; it is unreachable, because a process is resumed only by its own
// dispatch event or a Signal wake-up, and both are dropped when it
// finishes (it waits on at most one Signal, and only while parked).
func (p *Proc) resume() {
	if p.c.p != p {
		// A wake-up for a process that already finished would resume
		// whatever process its carrier runs now.
		panic("sim: resume of finished process " + p.name)
	}
	p.c.next()
}

// yieldToScheduler hands control back and blocks until resumed. yield
// reports false once Close has stopped the carrier — at the resume that
// delivers the stop, and at once on any later call from a deferred
// function — and the process unwinds. It unwinds by panicking with the
// procKilled sentinel, which no caller sees: carrier.run recovers it and
// records no failure.
//
//xssd:hotpath
func (p *Proc) yieldToScheduler() {
	if !p.c.yield(struct{}{}) {
		panic(procKilled)
	}
}

// Close releases every parked process so its goroutine exits, and drops
// all queued events. Without it, an Env abandoned after a truncated
// RunUntil leaks one goroutine per carrier for the life of the program.
// Stopping a carrier parked inside a process unwinds that process through
// its deferred functions; an idle carrier, or one handed a process that was
// never dispatched, just returns (the process never runs); a carrier that
// was never resumed at all never starts. Close is terminal: the Env must
// not be used afterwards. It must be called from the driving test or main
// goroutine, never from process context.
// A Close from process context is API misuse and panics; no caller reaches
// it, for every owner closes in deferred teardown on the driving goroutine.
func (e *Env) Close() {
	if e.closed {
		return
	}
	if e.running {
		panic("sim: Close from process context")
	}
	e.closed = true
	for _, c := range e.carriers {
		c.stop()
	}
	e.carriers = nil
	e.idle = pool.Free[*carrier]{}
	e.heap = nil
	e.nowq = fifo.Queue[event]{}
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.env.schedule(p.env.now+int64(d), p, nil)
	p.yieldToScheduler()
}

// SleepUntil suspends the process until absolute virtual time t.
func (p *Proc) SleepUntil(t time.Duration) {
	p.env.schedule(int64(t), p, nil)
	p.yieldToScheduler()
}

// Park suspends the process with no wake-up of its own: the caller has
// armed a chain of scheduler callbacks whose last step calls WakeAfter.
// Together they are a run of Sleeps with the work between them done by
// callbacks — the process pays one switch for the run, not one per Sleep,
// and resumes at the (time, seq) position the last Sleep would have
// returned at. A parked process is not counted as blocked: like a sleeper,
// it has an event on the way.
func (p *Proc) Park() { p.yieldToScheduler() }

// WakeAfter schedules the parked process to resume d from now. It is the
// scheduler-context half of Park.
//
//xssd:hotpath
func (p *Proc) WakeAfter(d time.Duration) { p.env.schedule(p.env.now+int64(d), p, nil) }

// Signal is a broadcast condition variable in virtual time. The zero value
// is not usable; create with NewSignal.
type Signal struct {
	env     *Env
	waiters []*Proc
}

// NewSignal returns a Signal bound to e.
func (e *Env) NewSignal() *Signal { return &Signal{env: e} }

// Broadcast wakes every process currently waiting on s. The wake-ups are
// scheduled at the current instant, after events already due. Each waiter
// is scheduled on its own Env: a process from another group member may
// wait on a foreign Signal during a serialized (inline) phase, and its
// wake-up must land in its own queue, not the Signal's.
//
//xssd:hotpath
func (s *Signal) Broadcast() {
	for _, p := range s.waiters {
		p.env.blocked--
		p.env.schedule(s.env.now, p, nil)
	}
	s.waiters = s.waiters[:0]
}

// Waiting reports whether a Broadcast now would wake anyone. A kick site
// that can tell the waiter would only re-check its condition and wait again
// uses it to find out whether that waiter is parked here at all.
func (s *Signal) Waiting() bool { return len(s.waiters) > 0 }

// Wait blocks the process until the next Broadcast on s.
//
//xssd:hotpath
func (p *Proc) Wait(s *Signal) {
	s.waiters = append(s.waiters, p)
	p.env.blocked++
	p.yieldToScheduler()
}

// WaitFor blocks until cond() is true, re-checking after every Broadcast of
// s. It returns immediately if cond() already holds.
func (p *Proc) WaitFor(s *Signal, cond func() bool) {
	for !cond() {
		p.Wait(s)
	}
}

// Run drives the simulation until no events remain. It returns the number
// of processes still blocked on Signals (0 means everything ran to
// completion; >0 indicates a deadlock or processes waiting on external
// stimulus). Only processes count: a service written as a chain of
// scheduler callbacks that has gone idle until its next kick (the CMB
// drain, say) holds no event and no process, so it is not in the number.
// If a process panicked, Run rethrows the *ProcPanic here, on the driving
// goroutine.
// A Run from inside a run (a process or a scheduler callback calling it)
// or on a closed Env is API misuse and panics, in run; no caller reaches
// it, for every owner drives its Env from the goroutine that built it and
// closes it in deferred teardown, after the last run.
func (e *Env) Run() int { n := e.run(-1); e.rethrow(); return n }

// RunUntil drives the simulation until virtual time t; events due later
// stay queued. It returns the number of processes blocked on Signals.
func (e *Env) RunUntil(t time.Duration) int { n := e.run(int64(t)); e.rethrow(); return n }

// rethrow surfaces a captured process panic on the caller's goroutine.
// This panic is the process's own failure carried across the coroutine
// boundary, not a new one: it fires only when a process panicked first.
func (e *Env) rethrow() {
	if e.fail != nil {
		panic(e.fail)
	}
}

//xssd:hotpath
func (e *Env) run(until int64) int {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	if e.closed {
		panic("sim: Run on closed Env")
	}
	e.running = true
	//xssd:ignore hotpathalloc once-per-run prologue, not per-event work
	defer func() { e.running = false }()
	for {
		// Pick the next event in global (time, seq) order: heap events due
		// at or before now always precede the now-FIFO (they carry smaller
		// seqs — see the Env comment), and only when both are empty does
		// time advance to the heap's next instant.
		var ev event
		switch {
		case len(e.heap) > 0 && e.heap[0].at <= e.now:
			if until >= 0 && e.heap[0].at > until {
				goto out
			}
			ev = e.heapPop()
		case e.nowq.Len() > 0:
			if h, _ := e.nowq.Peek(); until >= 0 && h.at > until {
				goto out
			}
			ev, _ = e.nowq.Pop()
		case len(e.heap) > 0:
			if until >= 0 && e.heap[0].at > until {
				goto out
			}
			ev = e.heapPop()
			e.now = ev.at
		default:
			goto out
		}
		e.events++
		if ev.fn != nil {
			ev.fn()
			continue
		}
		if ev.proc != nil {
			e.resumes++
			ev.proc.resume()
			if e.fail != nil {
				// The process panicked; its carrier captured the panic and
				// yielded. Stop dispatching — the caller (Run or the group
				// barrier) decides how to surface the failure.
				goto out
			}
		}
	}
out:
	if until > e.now {
		e.now = until
	}
	return e.blocked
}

// Link models a shared, FIFO, bandwidth-limited transfer resource (a PCIe
// link, a memory bus, a flash channel bus). A transfer of n bytes occupies
// the link for n/BytesPerSec and completes Latency after it leaves the
// link. Requests are served strictly in arrival order.
type Link struct {
	env         *Env
	name        string
	bytesPerSec float64
	latency     time.Duration

	busyUntil int64
	// stats
	bytes    int64
	busyTime int64
	xfers    int64
}

// NewLink creates a link with the given bandwidth (bytes/second) and fixed
// propagation latency.
// A non-positive bandwidth is API misuse and panics; no caller reaches it,
// for every bandwidth is a package constant or comes from a fixed spec
// (PCIe lanes, pm bank specs, NAND timing, the NTB default), and the public
// facade only selects among those specs.
func (e *Env) NewLink(name string, bytesPerSec float64, latency time.Duration) *Link {
	if bytesPerSec <= 0 {
		panic("sim: link bandwidth must be positive")
	}
	return &Link{env: e, name: name, bytesPerSec: bytesPerSec, latency: latency}
}

// SerializationTime returns how long n bytes occupy the link, excluding the
// propagation latency: at least a nanosecond for any payload, so every
// transfer moves the clock. It is the one definition of that quantum — a
// sender pacing itself by it (a CPU posting stores, a pipelined memory
// port) keeps an idle link exactly busy, with neither a gap nor a queue.
func (l *Link) SerializationTime(n int) time.Duration {
	dur := int64(float64(n) / l.bytesPerSec * 1e9)
	if dur < 1 && n > 0 {
		dur = 1
	}
	return time.Duration(dur)
}

// occupy reserves the link for n bytes starting no earlier than now and
// returns the completion time of the transfer (excluding latency).
func (l *Link) occupy(n int) (start, end int64) {
	l.env.touched()
	start = l.env.now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	dur := int64(l.SerializationTime(n))
	end = start + dur
	l.busyUntil = end
	l.bytes += int64(n)
	l.busyTime += dur
	l.xfers++
	return start, end
}

// Transfer moves n bytes across the link, blocking the calling process for
// queueing + serialization + latency.
func (l *Link) Transfer(p *Proc, n int) {
	_, end := l.occupy(n)
	p.SleepUntil(time.Duration(end) + l.latency)
}

// Send moves n bytes across the link without blocking the caller; fn (may
// be nil) runs in scheduler context when the data has fully arrived.
func (l *Link) Send(n int, fn func()) {
	_, end := l.occupy(n)
	if fn != nil {
		l.env.At(time.Duration(end)+l.latency, fn)
	}
}

// SendTimed moves n bytes across the link without blocking the caller and
// returns the virtual time at which the data fully arrives (queueing +
// serialization + latency), scheduling nothing. It is the building block
// for cross-Env delivery, where the arrival must be posted through a Group
// mailbox (Env.PostTo) instead of scheduled on the local queue.
func (l *Link) SendTimed(n int) time.Duration {
	_, end := l.occupy(n)
	return time.Duration(end) + l.latency
}

// Stats reports total bytes moved, cumulative busy time and transfer count.
func (l *Link) Stats() (bytes int64, busy time.Duration, transfers int64) {
	return l.bytes, time.Duration(l.busyTime), l.xfers
}

// Utilization returns the fraction of the interval [0, now] the link was
// busy.
func (l *Link) Utilization() float64 {
	if l.env.now == 0 {
		return 0
	}
	return float64(l.busyTime) / float64(l.env.now)
}

// String implements fmt.Stringer.
func (l *Link) String() string {
	return fmt.Sprintf("link %s: %.2f MB/s, util %.1f%%", l.name, l.bytesPerSec/1e6, 100*l.Utilization())
}
