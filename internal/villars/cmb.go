package villars

import (
	"time"

	"xssd/internal/fault"
	"xssd/internal/fifo"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/pm"
	"xssd/internal/pool"
	"xssd/internal/ring"
	"xssd/internal/sim"
)

// cmbModule is the fast side's front end (paper §4.1, Fig 5): arriving TLP
// payloads land on an SRAM intake queue of pre-negotiated size; a drain
// chain retires them into the PM backing ring; the credit counter — the
// ring's contiguous frontier — advances only when gap-free data reaches the
// backing memory. The module has no process of its own: intake, drain and
// persist are all scheduler callbacks.
type cmbModule struct {
	dev  *Device
	fs   *fastSide
	bank *pm.Bank
	ring *ring.Ring

	//xssd:pool retain
	queue     fifo.Queue[cmbChunk]
	queueUsed int
	draining  bool   // a drainStep is scheduled
	drainNext func() // drainStep, bound once

	// persistq holds chunks in flight on the backing bus; the bus is FIFO,
	// so every completion fires persistNext (bound once) — no per-chunk
	// closure. chunkBufs recycles payload buffers between intake and
	// persist.
	//xssd:pool retain
	persistq    fifo.Queue[cmbChunk]
	persistNext func()
	//xssd:pool put
	chunkBufs pool.Free[[]byte]

	CreditChanged *sim.Signal // frontier advanced

	// advanced API (paper §5.2): active allocations pin the destage floor.
	allocs []Allocation

	// metrics (<fs>/cmb/...)
	mBytesIn  *obs.Counter
	mOverruns *obs.Counter
	mRejected *obs.Counter
	mPersist  *obs.Histogram // intake arrival -> ring persist, ns
}

type cmbChunk struct {
	off  int64
	data []byte
	at   time.Duration // intake arrival time (persist-latency span)
}

// Allocation is an active fast-side region handed out by Alloc (paper
// §5.2): the device will not destage past the start of the oldest active
// allocation, so the area may be written in any order until freed.
type Allocation struct {
	Start, End int64
}

func newCMBModule(d *Device, fs *fastSide, bank *pm.Bank) *cmbModule {
	m := &cmbModule{
		dev:           d,
		fs:            fs,
		bank:          bank,
		ring:          ring.New(int(fs.cmbSize)),
		CreditChanged: d.env.NewSignal(),
	}
	m.drainNext = m.drainStep
	m.persistNext = m.persistOldest
	sc := obs.For(d.env).Scope(fs.name + "/cmb")
	m.mBytesIn = sc.Counter("bytes_in")
	m.mOverruns = sc.Counter("overruns")
	m.mRejected = sc.Counter("rejected")
	m.mPersist = sc.Histogram("persist_ns")
	sc.GaugeFunc("credit", m.ring.Frontier)
	sc.GaugeFunc("live", m.ring.Live)
	sc.GaugeFunc("queue_used", func() int64 { return int64(m.queueUsed) })
	return m
}

// MemWrite implements pcie.Target: a TLP payload arrived on the CMB
// interface. Runs in scheduler context; must not block.
//
//xssd:hotpath
func (m *cmbModule) MemWrite(off int64, data []byte) {
	// Fault plan: byte-weighted power-loss trigger — "cut power on the
	// Nth CMB byte" counts every fast side's arriving payload.
	if fault.CheckEnv(m.dev.env, fault.DevicePower, m.dev.cfg.Name, int64(len(data))).Fail() {
		m.dev.InjectPowerLoss()
	}
	if m.dev.powerLost {
		m.mRejected.Inc()
		return
	}
	// The Transport module receives a mirror of the arriving TLP stream
	// (paper §4.2, Fig 6 step 1). Only the device's primary fast side
	// replicates; virtual functions are local (their replication configs
	// are future work per paper §7.2).
	if m.fs.primary {
		m.dev.transport.mirror(off, data)
	}
	if m.queueUsed+len(data) > m.fs.queueSize {
		// The host overran the advisory flow-control protocol; the write
		// is dropped and the guarantee void (paper §4.1).
		m.mOverruns.Inc()
		m.dev.tracer.Record(obs.QueueOverrun, m.fs.name, off, int64(len(data)))
		return
	}
	buf := tlpBuf(&m.chunkBufs, len(data))
	copy(buf, data)
	m.queue.Push(cmbChunk{off: off, data: buf, at: m.dev.env.Now()})
	m.queueUsed += len(buf)
	m.mBytesIn.Add(int64(len(buf)))
	m.dev.tracer.Record(obs.CMBWrite, m.fs.name, off, int64(len(buf)))
	m.kickDrain()
}

// MemRead implements pcie.Target: loads from the CMB window read the
// backing ring (the window is byte-addressable in both directions).
func (m *cmbModule) MemRead(off int64, dst []byte) {
	if m.ring.ReadInto(dst, off) != nil {
		clear(dst)
	}
}

// kickDrain starts the drain chain unless it is already running: its first
// step runs at this instant, after the events already due.
//
//xssd:hotpath
func (m *cmbModule) kickDrain() {
	if !m.draining {
		m.draining = true
		m.dev.env.After(0, m.drainNext)
	}
}

// drainStep streams one intake-queue entry onto the backing bus and re-arms
// itself for when the bus has taken it; on an empty queue the chain stops
// until the next kickDrain. Stores are pipelined: each chunk occupies the
// bus for its serialization time only, and commits to the ring one access
// latency later (bus FIFO keeps those completions in order), so back-to-back
// chunks stream at full bus bandwidth instead of serializing on the access
// latency.
//
// The first step is a scheduled event even when the bus is idle, never a
// call from MemWrite: run inline, its WriteAsync would reach the bus ahead
// of whatever else is due at this instant — a destage carve's ring read,
// say — and reorder the two (DESIGN.md §9).
//
//xssd:hotpath
func (m *cmbModule) drainStep() {
	c, ok := m.queue.Pop()
	if !ok {
		m.draining = false
		if m.dev.powerLost {
			// Crash protocol: the queue is empty; nothing more will
			// arrive. The destage module finishes the job.
			m.fs.destage.kick.Broadcast()
		}
		return
	}
	m.persistq.Push(c)
	m.bank.WriteAsync(len(c.data), m.persistNext)
	m.dev.env.After(m.bank.SerializationTime(len(c.data)), m.drainNext)
}

// tlpBuf returns a buffer of length n from free, the CMB intake's or a
// peer's mirror chunks. Buffers are made to hold a TLP; a longer request (a
// backfill chunk, or a MemWrite that did not come off the fabric) drops a
// buffer too small for it.
//
//xssd:pool get
func tlpBuf(free *pool.Free[[]byte], n int) []byte {
	if b := free.Get(); cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n, max(n, pcie.MaxPayload))
}

// persistOldest lands the oldest in-flight chunk in the backing ring
// (scheduler context, in bus completion order) and recycles its buffer.
//
//xssd:hotpath
func (m *cmbModule) persistOldest() {
	c, _ := m.persistq.Pop()
	before := m.ring.Frontier()
	err := m.ring.Write(c.off, c.data)
	m.queueUsed -= len(c.data)
	m.chunkBufs.Put(c.data)
	if err != nil {
		// Stale or overrunning write: drop it. The host's flow control
		// should prevent this.
		m.mRejected.Inc()
		return
	}
	m.mPersist.Since(c.at)
	if m.ring.Frontier() != before {
		m.dev.tracer.Record(obs.CMBPersist, m.fs.name, c.off, m.ring.Frontier())
		m.CreditChanged.Broadcast()
		m.fs.destage.frontierMoved()
	}
}

// Alloc reserves size bytes at the current high-water mark for random-order
// writing (paper §5.2). The region is pinned — not destage-eligible — until
// freed.
func (m *cmbModule) Alloc(size int) (Allocation, error) {
	if int64(size) > m.ring.Free() {
		return Allocation{}, ring.ErrFull
	}
	start := m.allocTail()
	a := Allocation{Start: start, End: start + int64(size)}
	m.allocs = append(m.allocs, a)
	return a, nil
}

// allocTail returns the first stream offset past every allocation and all
// appended data.
func (m *cmbModule) allocTail() int64 {
	t := m.ring.Frontier()
	for _, a := range m.allocs {
		if a.End > t {
			t = a.End
		}
	}
	if gaps := m.ring.Gaps(); len(gaps) > 0 {
		if e := gaps[len(gaps)-1].End; e > t {
			t = e
		}
	}
	return t
}

// Free releases the allocation beginning at stream offset start, the
// handle OpXFree carries; once every allocation below it is also free,
// the region becomes destage-eligible. It reports false when no active
// allocation begins there.
func (m *cmbModule) Free(start int64) bool {
	for i, a := range m.allocs {
		if a.Start == start {
			m.allocs = append(m.allocs[:i], m.allocs[i+1:]...)
			m.fs.destage.floorMoved()
			m.fs.destage.kick.Broadcast()
			return true
		}
	}
	return false
}

// destageFloor returns the stream offset destaging must not cross: the
// start of the oldest active allocation, or the frontier when none.
func (m *cmbModule) destageFloor() int64 {
	floor := m.ring.Frontier()
	for _, a := range m.allocs {
		if a.Start < floor {
			floor = a.Start
		}
	}
	return floor
}

// Ring exposes the backing ring (tests and the destage module).
func (m *cmbModule) Ring() *ring.Ring { return m.ring }
