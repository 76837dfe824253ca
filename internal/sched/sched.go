// Package sched implements the storage-controller scheduler of the Villars
// device (paper §4.3): per-channel dispatch of flash operations under one
// of three policies — Neutral, Destage Priority, or Conventional Priority.
// In the priority modes the low-priority class is issued only into the
// "gaps" where the high-priority class has nothing runnable, which the
// paper calls Opportunistic Destaging.
package sched

import (
	"time"

	"xssd/internal/fifo"
	"xssd/internal/nand"
	"xssd/internal/obs"
	"xssd/internal/sim"
)

// Source classifies where a flash operation originated.
type Source int

// Operation sources.
const (
	Conventional Source = iota // host block IO through the normal SSD path
	Destage                    // fast-side data being destaged to flash
	GC                         // internal garbage collection traffic
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case Conventional:
		return "conventional"
	case Destage:
		return "destage"
	case GC:
		return "gc"
	}
	return "unknown"
}

// Policy selects the scheduling mode (paper §4.3).
type Policy int

// Scheduling policies.
const (
	// Neutral divides write opportunities equally (FIFO).
	Neutral Policy = iota
	// DestagePriority issues destage ops first; conventional ops fill gaps.
	DestagePriority
	// ConventionalPriority protects the conventional workload; destage ops
	// fill gaps.
	ConventionalPriority
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Neutral:
		return "neutral"
	case DestagePriority:
		return "destage-priority"
	case ConventionalPriority:
		return "conventional-priority"
	}
	return "unknown"
}

// OpKind is the flash operation type.
type OpKind int

// Operation kinds.
const (
	OpProgram OpKind = iota
	OpRead
	OpErase
)

// Request is one flash operation awaiting dispatch.
type Request struct {
	Kind   OpKind
	Addr   nand.PageAddr // page for program/read; block via Addr.BlockAddr() for erase
	Data   []byte        // program: the payload; read: the caller's page the read fills
	Source Source
	// Done fires in scheduler context at completion (for a validation
	// error, at dispatch). For OpRead, data is Data, filled with the page;
	// it is nil otherwise.
	Done func(data []byte, err error)

	enqueued time.Duration
}

// Scheduler dispatches requests onto a nand.Array, one dispatcher process
// per channel.
type Scheduler struct {
	env    *sim.Env
	array  *nand.Array
	policy Policy

	queues [][3]fifo.Queue[*Request] // [channel][source class]
	signal *sim.Signal

	// stats
	bytesBySource [3]int64
	opsBySource   [3]int64
	waitBySource  [3]time.Duration

	// metrics: per-source queueing-delay histograms, nil until Observe.
	waitHist [3]*obs.Histogram
}

// Observe registers the scheduler's telemetry under sc (the owning device
// supplies "<dev>/sched"): per-source ops/bytes gauges and a queueing-wait
// histogram per source. Call once, before traffic.
func (s *Scheduler) Observe(sc obs.Scope) {
	for src := Conventional; src <= GC; src++ {
		src := src
		sub := sc.Sub(src.String())
		sub.GaugeFunc("ops", func() int64 { return s.opsBySource[src] })
		sub.GaugeFunc("bytes", func() int64 { return s.bytesBySource[src] })
		// wait_ns: from a request entering the queue to its dispatch to
		// the array.
		s.waitHist[src] = sub.Histogram("wait_ns")
	}
	sc.GaugeFunc("policy", func() int64 { return int64(s.policy) })
}

// New creates a scheduler over array and starts its per-channel
// dispatchers.
func New(env *sim.Env, array *nand.Array, policy Policy) *Scheduler {
	s := &Scheduler{
		env:    env,
		array:  array,
		policy: policy,
		queues: make([][3]fifo.Queue[*Request], array.Geometry().Channels),
		signal: env.NewSignal(),
	}
	// Forward die-completion events into the scheduler's wake-up signal so
	// dispatchers block on a single condition.
	env.Go("sched-freed", func(p *sim.Proc) {
		for {
			p.Wait(array.Freed)
			s.signal.Broadcast()
		}
	})
	for ch := 0; ch < array.Geometry().Channels; ch++ {
		ch := ch
		env.Go("sched-ch", func(p *sim.Proc) { s.dispatch(p, ch) })
	}
	return s
}

// Policy returns the active policy.
func (s *Scheduler) Policy() Policy { return s.policy }

// SetPolicy switches the scheduling mode (the paper configures this via a
// vendor-specific NVMe command).
func (s *Scheduler) SetPolicy(p Policy) { s.policy = p }

// Submit queues a request for dispatch.
//
//xssd:hotpath
func (s *Scheduler) Submit(r *Request) {
	r.enqueued = s.env.Now()
	s.queues[r.Addr.Channel][r.Source].Push(r)
	s.signal.Broadcast()
}

// classOrder returns source classes in dispatch-priority order for the
// active policy. GC always runs first: it frees the blocks everything else
// needs.
func (s *Scheduler) classOrder() [3]Source {
	switch s.policy {
	case DestagePriority:
		return [3]Source{GC, Destage, Conventional}
	case ConventionalPriority:
		return [3]Source{GC, Conventional, Destage}
	default:
		return [3]Source{GC, Conventional, Destage} // order among non-GC resolved by FIFO below
	}
}

// pick removes and returns the next dispatchable request on ch (target die
// idle), or nil.
//
//xssd:hotpath
func (s *Scheduler) pick(ch int) *Request {
	q := &s.queues[ch]
	if s.policy == Neutral {
		// Global FIFO across all classes: choose the oldest runnable
		// request regardless of source.
		bestClass, bestIdx := -1, -1
		var bestAt time.Duration
		for c := 0; c < 3; c++ {
			for i, r := range q[c].Items() {
				if s.array.DieBusy(r.Addr.Channel, r.Addr.Way) {
					continue
				}
				if bestClass == -1 || r.enqueued < bestAt {
					bestClass, bestIdx, bestAt = c, i, r.enqueued
				}
				break // within a class the queue is FIFO: first runnable wins
			}
		}
		if bestClass == -1 {
			return nil
		}
		return q[bestClass].RemoveAt(bestIdx)
	}
	for _, class := range s.classOrder() {
		for i, r := range q[class].Items() {
			if s.array.DieBusy(r.Addr.Channel, r.Addr.Way) {
				continue
			}
			return q[class].RemoveAt(i)
		}
	}
	return nil
}

// dispatch is one channel's dispatcher: issue the next runnable request,
// or sleep until one arrives or a die frees up. A request's Done goes to
// the array as it is, which fires it when the operation completes.
//
//xssd:hotpath
func (s *Scheduler) dispatch(p *sim.Proc, ch int) {
	for {
		r := s.pick(ch)
		if r == nil {
			// Nothing runnable: sleep until a request arrives or a die
			// frees up (the forwarder relays array.Freed into signal).
			p.Wait(s.signal)
			continue
		}
		wait := p.Now() - r.enqueued
		s.waitBySource[r.Source] += wait
		s.waitHist[r.Source].ObserveDuration(wait)
		s.opsBySource[r.Source]++
		switch r.Kind {
		case OpProgram:
			s.bytesBySource[r.Source] += int64(len(r.Data))
			s.array.Program(p, r.Addr, r.Data, r.Done)
		case OpRead:
			s.array.Read(r.Addr, r.Data, r.Done)
		case OpErase:
			s.array.Erase(r.Addr.BlockAddr(), r.Done)
		}
	}
}

// BytesBySource returns cumulative programmed bytes per source (the Fig 12
// measurement).
func (s *Scheduler) BytesBySource(src Source) int64 { return s.bytesBySource[src] }

// OpsBySource returns the number of dispatched operations per source.
func (s *Scheduler) OpsBySource(src Source) int64 { return s.opsBySource[src] }

// AvgWait returns the mean queueing delay per source.
func (s *Scheduler) AvgWait(src Source) time.Duration {
	if s.opsBySource[src] == 0 {
		return 0
	}
	return s.waitBySource[src] / time.Duration(s.opsBySource[src])
}
