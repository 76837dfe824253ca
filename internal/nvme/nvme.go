// Package nvme defines the NVMe vocabulary the simulated device speaks
// (paper §2.1): submission/completion queues with doorbells, IO commands
// (read/write/flush), and the vendor-specific admin commands the Villars
// device adds for transport and destage control (paper §4.2: "the commands
// we added are sent using vendor-specific features of the regular NVMe
// drivers").
//
// The host side scales past a single queue pair the way real NVMe does:
// a QueueSet holds N per-core SQ/CQ pairs, each SQ rings its own doorbell
// (plus the set's shared "armed" line the controller fetcher sleeps on),
// and each CQ stamps completions with a per-queue sequence number and can
// coalesce interrupts — fire after K completions or coalesceWait after the
// first pending one, whichever comes first. The Driver matches: Submit
// keeps the classic blocking call on queue 0, while SubmitAsync/Wait expose
// tokens for callers that keep many commands in flight per queue.
package nvme

import (
	"fmt"
	"time"

	"xssd/internal/fifo"
	"xssd/internal/obs"
	"xssd/internal/sim"
)

// Opcode identifies a command.
type Opcode uint8

// IO and admin opcodes. The vendor-specific range (0xC0+) carries the
// X-SSD extensions.
const (
	OpFlush Opcode = 0x00
	OpWrite Opcode = 0x01
	OpRead  Opcode = 0x02

	// Vendor-specific admin commands (X-SSD extensions).
	OpXSetTransportMode Opcode = 0xC0 // CDW: TransportMode
	OpXSetDestagePolicy Opcode = 0xC1 // CDW: scheduling policy
	OpXAlloc            Opcode = 0xC5 // advanced API: reserve a fast-side area (CDW: size)
	OpXFree             Opcode = 0xC6 // advanced API: release an area (CDW: start offset)
)

// Status is a command completion status.
type Status uint16

// Completion statuses.
const (
	StatusSuccess Status = 0
	StatusError   Status = 1
	StatusInvalid Status = 2
)

// Command is a submission-queue entry.
type Command struct {
	ID     uint16
	Opcode Opcode
	LBA    int64 // starting logical block
	Blocks int   // block count
	PRP    int64 // host-memory address of the data buffer
	CDW    int64 // command-specific dword (vendor extensions)
}

// Completion is a completion-queue entry.
type Completion struct {
	ID     uint16
	Status Status
	Value  int64  // command-specific result (vendor extensions)
	Seq    uint64 // per-queue sequence number, stamped by CompletionQueue.Post
}

// SubmissionQueue is a host-side command ring with a doorbell. Every SQ
// belongs to a QueueSet and also rings the set's shared armed line, which
// is what the controller's fetcher sleeps on (one waiter across N queues
// instead of N).
type SubmissionQueue struct {
	entries  fifo.Queue[Command]
	Doorbell *sim.Signal
	armed    *sim.Signal // the owning QueueSet's aggregate line
}

// Push enqueues a command and rings the doorbell and the owning set's
// armed line.
//
//xssd:hotpath
func (q *SubmissionQueue) Push(c Command) {
	q.entries.Push(c)
	q.Doorbell.Broadcast()
	q.armed.Broadcast()
}

// Pop dequeues the oldest command; ok is false when empty.
//
//xssd:hotpath
func (q *SubmissionQueue) Pop() (Command, bool) { return q.entries.Pop() }

// Len returns the number of queued commands.
func (q *SubmissionQueue) Len() int { return q.entries.Len() }

// coalesceWait bounds how long a completion may wait for its coalesced
// interrupt, so a final sub-batch never strands.
const coalesceWait = 8 * time.Microsecond

// CompletionQueue is a device-side completion ring with an interrupt the
// host driver listens on. Post stamps each completion with a per-queue
// monotone sequence number. Under coalescing (an op count above one) the
// interrupt is raised once that many completions are pending, or
// coalesceWait after the first of them, whichever comes first; otherwise
// it is raised per completion.
type CompletionQueue struct {
	env       *sim.Env
	entries   fifo.Queue[Completion]
	Interrupt *sim.Signal
	seq       uint64
	coalesce  int    // completions per interrupt; <= 1 interrupts on each
	pending   int    // completions posted since the last interrupt
	timerOn   bool   // a coalescing timer is armed
	timerFn   func() // prebuilt callback, so Post never allocates a closure
}

// NewCompletionQueue creates an empty CQ in env.
func NewCompletionQueue(env *sim.Env) *CompletionQueue {
	q := &CompletionQueue{env: env, Interrupt: env.NewSignal()}
	q.timerFn = func() {
		q.timerOn = false
		if q.pending > 0 {
			q.fire()
		}
	}
	return q
}

// SetCoalesce sets how many completions share one interrupt (<= 1: every
// completion interrupts). Call during bring-up, before completions flow.
func (q *CompletionQueue) SetCoalesce(ops int) { q.coalesce = ops }

// Post enqueues a completion, stamps its sequence number, and raises (or
// defers, under coalescing) the interrupt.
//
//xssd:hotpath
func (q *CompletionQueue) Post(c Completion) {
	q.seq++
	c.Seq = q.seq
	q.entries.Push(c)
	if q.coalesce <= 1 {
		q.Interrupt.Broadcast()
		return
	}
	q.pending++
	if q.pending >= q.coalesce {
		q.fire()
		return
	}
	if !q.timerOn {
		q.timerOn = true
		q.env.After(coalesceWait, q.timerFn)
	}
}

// fire raises the coalesced interrupt and opens a new batch.
func (q *CompletionQueue) fire() {
	q.pending = 0
	q.Interrupt.Broadcast()
}

// Pop dequeues the oldest completion; ok is false when empty.
//
//xssd:hotpath
func (q *CompletionQueue) Pop() (Completion, bool) { return q.entries.Pop() }

// Len returns the number of pending completions.
func (q *CompletionQueue) Len() int { return q.entries.Len() }

// Seq returns the sequence number of the last posted completion.
func (q *CompletionQueue) Seq() uint64 { return q.seq }

// QueuePair bundles an SQ and CQ, the unit a driver binds to.
type QueuePair struct {
	SQ *SubmissionQueue
	CQ *CompletionQueue
}

// QueueSet is the host interface: N SQ/CQ pairs (one per submitting core,
// in the usual deployment) sharing one armed line so a controller fetcher
// can sleep on a single signal and round-robin over whichever SQs hold
// commands. A one-pair set is the classic single-queue interface.
type QueueSet struct {
	pairs []*QueuePair
	armed *sim.Signal
}

// NewQueueSet creates n queue pairs (at least one), every CQ coalescing
// coalesceOps completions per interrupt.
func NewQueueSet(env *sim.Env, n, coalesceOps int) *QueueSet {
	if n < 1 {
		n = 1
	}
	s := &QueueSet{armed: env.NewSignal(), pairs: make([]*QueuePair, n)}
	for i := range s.pairs {
		cq := NewCompletionQueue(env)
		cq.SetCoalesce(coalesceOps)
		s.pairs[i] = &QueuePair{SQ: &SubmissionQueue{Doorbell: env.NewSignal(), armed: s.armed}, CQ: cq}
	}
	return s
}

// Len returns the number of queue pairs.
func (s *QueueSet) Len() int { return len(s.pairs) }

// Pair returns queue pair i.
func (s *QueueSet) Pair(i int) *QueuePair { return s.pairs[i] }

// Armed is the shared doorbell line: broadcast whenever any SQ in the set
// receives a command.
func (s *QueueSet) Armed() *sim.Signal { return s.armed }

// Token identifies an in-flight async command: the queue it was submitted
// on and the command ID the driver assigned.
type Token struct {
	Queue int
	ID    uint16
}

// driverQueue is the driver's per-queue state: ID allocation, the
// completion stash Wait matches against, and optional instruments.
type driverQueue struct {
	qp        *QueuePair
	nextID    uint16
	inflight  int
	done      map[uint16]Completion
	wake      *sim.Signal
	submitAt  map[uint16]time.Duration // populated only when mLat != nil
	submitted int64
	completed int64
	lastSeq   uint64
	mLat      *obs.Histogram
	cSub      *obs.Counter
	cCmp      *obs.Counter
}

// Driver is the host-side NVMe driver: it issues commands on the pairs of
// a queue set and matches completions to callers. Submit is the classic
// blocking call (queue 0); SubmitAsync/Wait are the async surface. The
// driver puts no bound on commands in flight: an async caller keeps its
// own window.
type Driver struct {
	env    *sim.Env
	queues []*driverQueue
}

// NewDriver binds a driver to every pair in qs and starts one
// interrupt-service process per CQ.
func NewDriver(env *sim.Env, qs *QueueSet) *Driver {
	d := &Driver{env: env}
	for i := 0; i < qs.Len(); i++ {
		name := "nvme-isr"
		if i > 0 {
			name = fmt.Sprintf("nvme-isr-%d", i)
		}
		qp := qs.Pair(i)
		dq := &driverQueue{qp: qp, done: map[uint16]Completion{}, wake: env.NewSignal()}
		d.queues = append(d.queues, dq)
		env.Go(name, func(p *sim.Proc) {
			for {
				d.drain(dq)
				dq.wake.Broadcast()
				p.Wait(qp.CQ.Interrupt)
			}
		})
	}
	return d
}

// drain moves every pending completion from the CQ into the queue's done
// stash, charging latency instruments as it goes.
//
//xssd:hotpath
func (d *Driver) drain(dq *driverQueue) {
	for {
		c, ok := dq.qp.CQ.Pop()
		if !ok {
			return
		}
		dq.done[c.ID] = c
		dq.inflight--
		dq.completed++
		dq.lastSeq = c.Seq
		dq.cCmp.Add(1)
		if dq.mLat != nil {
			if at, ok := dq.submitAt[c.ID]; ok {
				dq.mLat.ObserveDuration(d.env.Now() - at)
				delete(dq.submitAt, c.ID)
			}
		}
	}
}

// Inflight returns the number of commands submitted on queue q whose
// completions have not yet been drained.
func (d *Driver) Inflight(q int) int { return d.queues[q].inflight }

// Observe registers per-queue instruments under sc: submitted/completed
// counters, sq/cq/inflight depth gauges, and the submit→complete latency
// histogram. Call during bring-up; a zero Scope keeps the driver silent.
func (d *Driver) Observe(sc obs.Scope) {
	for i, dq := range d.queues {
		q := sc.Sub(fmt.Sprintf("q%d", i))
		dq.cSub = q.Counter("submitted")
		dq.cCmp = q.Counter("completed")
		// submit_complete_ns: from the driver pushing a command onto the
		// submission queue to the driver draining its completion.
		dq.mLat = q.Histogram("submit_complete_ns")
		if dq.submitAt == nil {
			dq.submitAt = map[uint16]time.Duration{}
		}
		sq, cq, dqq := dq.qp.SQ, dq.qp.CQ, dq
		q.GaugeFunc("sq_depth", func() int64 { return int64(sq.Len()) })
		q.GaugeFunc("cq_depth", func() int64 { return int64(cq.Len()) })
		q.GaugeFunc("inflight", func() int64 { return int64(dqq.inflight) })
	}
}

// Latency returns queue q's submit→complete histogram (nil unless Observe
// was called) — the latency suite reads its quantiles.
func (d *Driver) Latency(q int) *obs.Histogram { return d.queues[q].mLat }

// LastSeq returns the sequence number of the last completion drained from
// queue q — monotone per queue by construction.
func (d *Driver) LastSeq(q int) uint64 { return d.queues[q].lastSeq }

// Completed returns the number of completions drained from queue q.
func (d *Driver) Completed(q int) int64 { return d.queues[q].completed }

// Submitted returns the number of commands issued on queue q.
func (d *Driver) Submitted(q int) int64 { return d.queues[q].submitted }

// submit assigns an ID, stamps instruments, and pushes cmd on queue q.
//
//xssd:hotpath
func (d *Driver) submit(dq *driverQueue, cmd Command) uint16 {
	dq.nextID++
	cmd.ID = dq.nextID
	dq.inflight++
	dq.submitted++
	dq.cSub.Add(1)
	if dq.mLat != nil {
		dq.submitAt[cmd.ID] = d.env.Now()
	}
	dq.qp.SQ.Push(cmd)
	return cmd.ID
}

// Submit issues cmd on queue 0 and blocks the calling process until its
// completion arrives — the classic synchronous call.
func (d *Driver) Submit(p *sim.Proc, cmd Command) Completion {
	return d.SubmitOn(p, 0, cmd)
}

// SubmitOn is Submit on a chosen queue.
func (d *Driver) SubmitOn(p *sim.Proc, q int, cmd Command) Completion {
	dq := d.queues[q]
	id := d.submit(dq, cmd)
	return d.Wait(p, Token{Queue: q, ID: id})
}

// SubmitAsync issues cmd on queue q and returns a completion token
// without waiting for the device.
//
//xssd:hotpath
func (d *Driver) SubmitAsync(q int, cmd Command) Token {
	return Token{Queue: q, ID: d.submit(d.queues[q], cmd)}
}

// Wait blocks the calling process until tok's completion arrives and
// returns it.
func (d *Driver) Wait(p *sim.Proc, tok Token) Completion {
	dq := d.queues[tok.Queue]
	var out Completion
	p.WaitFor(dq.wake, func() bool {
		c, ok := dq.done[tok.ID]
		if ok {
			out = c
			delete(dq.done, tok.ID)
		}
		return ok
	})
	return out
}
