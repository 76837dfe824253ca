// Package ntb models PCIe Non-Transparent Bridging (paper §2.3): the
// interconnect the Villars Transport module uses to ship the fast-side
// write stream to peer devices. NTB forwards TLPs between two hosts' PCIe
// systems with only address translation — no protocol conversion — which is
// why the model is just another link plus a window mapping.
//
// A bridge has two delivery paths, chosen once by where its far end lives.
// Inside one Env a chunk waits in pendq and lands from the link's own
// completion event. Across members of a sim.Group a chunk rides a crossSlot
// through the group mailbox: the slot lends its buffer to the receiving
// member for the delivery and takes it back by virtual time alone, once the
// group's settled horizon has passed the arrival. Neither path allocates in
// steady state, and on both the target must copy what it keeps.
package ntb

import (
	"slices"
	"time"

	"xssd/internal/fault"
	"xssd/internal/fifo"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/sim"
)

// Default fabric parameters (Dolphin PXH830-class adapters, daisy-chained).
const (
	// DefaultBandwidth is the usable NTB bandwidth between two hosts.
	DefaultBandwidth = 2e9
	// DefaultHopLatency is the one-way latency of a single NTB hop.
	DefaultHopLatency = 1100 * time.Nanosecond
)

// Bridge is an NTB adapter pair connecting the local PCIe system to one
// remote host, possibly across several daisy-chain hops. A bridge belongs
// to the sender's Env; when the remote end lives in a different member of
// a sim.Group (NewBridgeTo), deliveries cross through the group mailbox at
// their arrival time instead of the local event queue, each in a slot from
// the bridge's own queue (sendCross). The hop latency (1.1µs default)
// exceeds the group's 1µs quantum, so barrier clamping never distorts
// arrival times; with a shorter hop a chunk lands, and its done callback
// runs, at the clamped instant PostTo reports.
type Bridge struct {
	env    *sim.Env
	remote *sim.Env // Env the window targets live in; == env when intra-env
	link   *sim.Link
	hops   int
	name   string

	// pendq holds TLP chunks in flight on the link. Link completions fire
	// in send order (serialization is monotone, latency constant), so every
	// completion delivers the oldest pending chunk via the one bound
	// deliver func — no per-chunk closure, and payload buffers recycle
	// through bufs.
	//xssd:pool retain
	pendq   fifo.Queue[ntbDelivery]
	deliver func()
	//xssd:pool put
	bufs [][]byte

	// slots holds every chunk slot this bridge has made for cross-member
	// deliveries, as a ring in arrival order with the oldest at slotHead
	// (sendCross). The sender alone writes a slot; the receiving member
	// reads it during the one delivery it was posted for.
	//xssd:pool retain a slot that crossed is not rewritten until the settled horizon has passed its arrival
	slots    []*crossSlot
	slotHead int

	// metrics (ntb/<name>/...)
	mChunks  *obs.Counter
	mDropped *obs.Counter
}

type ntbDelivery struct {
	target pcie.Target
	dst    int64
	buf    []byte
	done   func()
}

// getBuf returns a pooled chunk buffer of length n.
//
//xssd:pool get
func (b *Bridge) getBuf(n int) []byte {
	for len(b.bufs) > 0 {
		buf := b.bufs[len(b.bufs)-1]
		b.bufs = b.bufs[:len(b.bufs)-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]byte, n, pcie.MaxPayload)
}

// deliverNext lands the oldest pending chunk at its remote target
// (scheduler context, link completion order) and recycles the buffer.
// The target must copy: the buffer is reused for later chunks.
//
//xssd:hotpath
//xssd:conduit NTB delivery is the wire itself: it lands bytes at the remote Env's MMIO target, which copies on arrival
func (b *Bridge) deliverNext() {
	d, _ := b.pendq.Pop()
	d.target.MemWrite(d.dst, d.buf)
	b.bufs = append(b.bufs, d.buf)
	if d.done != nil {
		d.done()
	}
}

// NewBridgeTo creates a bridge with the given bandwidth and per-hop latency
// over hops daisy-chained adapters (hops >= 1), whose window targets live in
// remote — a different member of the sender's sim.Group, or env itself. The
// bridge and its link, buffers, and metrics belong to env (the sender); only
// the final chunk landing crosses to remote.
func NewBridgeTo(env, remote *sim.Env, name string, bandwidth float64, hopLatency time.Duration, hops int) *Bridge {
	if hops < 1 {
		hops = 1
	}
	b := &Bridge{
		env:    env,
		remote: remote,
		link:   env.NewLink("ntb-"+name, bandwidth, time.Duration(hops)*hopLatency),
		hops:   hops,
		name:   name,
	}
	b.deliver = b.deliverNext
	sc := obs.For(env).Scope("ntb/" + name)
	b.mChunks = sc.Counter("chunks")
	b.mDropped = sc.Counter("dropped")
	sc.GaugeFunc("bytes", func() int64 { bytes, _, _ := b.link.Stats(); return bytes })
	return b
}

// NewDefaultBridgeTo creates a single-hop bridge to remote with the default
// fabric parameters.
func NewDefaultBridgeTo(env, remote *sim.Env, name string) *Bridge {
	return NewBridgeTo(env, remote, name, DefaultBandwidth, DefaultHopLatency, 1)
}

// crossSlot carries one chunk to a target in another group member. run is
// bound once, when the slot is made, and is what the mailbox post executes
// in the receiver's Env; at is the instant it does. The slot and its buffer
// stay the sender's: the receiver only reads them, at at, and the target
// copies what it keeps.
type crossSlot struct {
	target pcie.Target
	dst    int64
	//xssd:pool retain lent to the receiving member for the delivery at at; rewritten only once the settled horizon has passed at
	buf []byte
	at  time.Duration
	run func()
}

func (s *crossSlot) land() { s.target.MemWrite(s.dst, s.buf) }

// nextSlot returns the slot the next cross-member chunk rides and makes it
// the newest of the ring. Arrivals are monotone per bridge (one FIFO link,
// one monotone clamp), so the ring's head is the oldest delivery and the
// only one inspected: it is reused when its arrival lies strictly before
// the group's settled horizon — every member has dispatched every event
// before that instant, the post included, or dropped it with its closed
// destination — and otherwise the ring grows by one. The rule reads virtual
// time only, so the slots in use, like everything else, are the same at any
// worker count.
//
//xssd:hotpath
//xssd:pool get
func (b *Bridge) nextSlot() *crossSlot {
	if len(b.slots) > 0 {
		if s := b.slots[b.slotHead]; s.at < b.env.Settled() {
			if b.slotHead++; b.slotHead == len(b.slots) {
				b.slotHead = 0
			}
			return s
		}
	}
	return b.growSlots()
}

// growSlots makes a slot and inserts it in front of the ring's head, which
// is the newest position. It runs until the ring covers the chunks one hop
// latency plus a quantum can hold, then never again.
func (b *Bridge) growSlots() *crossSlot {
	s := &crossSlot{buf: make([]byte, 0, pcie.MaxPayload)}
	s.run = s.land
	b.slots = slices.Insert(b.slots, b.slotHead, s)
	b.slotHead = (b.slotHead + 1) % len(b.slots) // wraps for the first slot only
	return s
}

// sendCross ships one chunk to a remote-Env target: the link is occupied
// locally (timing and bandwidth accounting belong to the sender) and the
// arrival is posted through the group mailbox in a slot of the bridge's
// ring, which the remote target copies from. done, if non-nil, fires in
// the *sender's* Env at the instant the chunk lands: completion callbacks
// drive sender-side state (retransmission windows) and must not run
// remotely. A post to a closed member is dropped by the mailbox; its slot
// comes back by the same rule as any other.
//
//xssd:hotpath
//xssd:conduit NTB delivery is the wire itself: bytes land at the remote Env's target at the barrier-merged arrival time, from a slot buffer that, having crossed, is not rewritten until the settled horizon has passed its arrival
func (b *Bridge) sendCross(target pcie.Target, dst int64, data []byte, wireBytes int, done func()) {
	s := b.nextSlot()
	s.target, s.dst = target, dst
	s.buf = append(s.buf[:0], data...)
	s.at = b.env.PostTo(b.remote, b.link.SendTimed(wireBytes), s.run)
	if done != nil {
		b.env.At(s.at, done)
	}
}

// Link exposes the bridge's link, whose serialization time tests add into
// the wire time of a chunk.
func (b *Bridge) Link() *sim.Link { return b.link }

// Window maps a range of the remote host's address space — in this model,
// directly a remote device target — through the bridge.
type Window struct {
	bridge *Bridge
	target pcie.Target
	base   int64
}

// NewWindow opens a window onto target at the given base offset.
func (b *Bridge) NewWindow(target pcie.Target, base int64) *Window {
	return &Window{bridge: b, target: target, base: base}
}

// Write forwards data to remote offset off as posted TLPs over the bridge.
// The caller is not blocked (a hardware mirror engine feeds the wire);
// done, if non-nil, runs in scheduler context when the last packet arrives.
func (w *Window) Write(off int64, data []byte, done func()) {
	b := w.bridge
	for len(data) > 0 {
		n := pcie.MaxPayload
		if n > len(data) {
			n = len(data)
		}
		dst := w.base + off
		off += int64(n)
		last := n == len(data)
		cb := done
		if !last {
			cb = nil
		}
		// Fault plan: the ntb.deliver point can drop or delay one TLP
		// chunk on the fabric. A dropped final chunk also swallows the
		// done callback — exactly the silence a real lost TLP causes;
		// higher layers must recover by timeout (the transport's repair
		// process does).
		b.mChunks.Inc()
		switch d := fault.CheckEnv(b.env, fault.NTBDeliver, b.name, 1); d.Act {
		case fault.ActionDrop, fault.ActionFail:
			b.mDropped.Inc()
		case fault.ActionDelay:
			// Delayed chunks bypass the in-order pendq (their Send is
			// issued when the timer fires, interleaving with later
			// traffic) and carry a private copy the closure owns; a
			// cross-member one takes its slot only when the timer fires.
			chunk := append([]byte(nil), data[:n]...)
			delay := d.Dur
			if b.remote != b.env {
				b.env.After(delay, func() { b.sendCross(w.target, dst, chunk, pcie.WireBytes(n), cb) })
				data = data[n:]
				continue
			}
			b.env.After(delay, func() {
				b.link.Send(pcie.WireBytes(n), func() {
					w.target.MemWrite(dst, chunk)
					if cb != nil {
						cb()
					}
				})
			})
		default:
			if b.remote != b.env {
				b.sendCross(w.target, dst, data[:n], pcie.WireBytes(n), cb)
				data = data[n:]
				continue
			}
			buf := b.getBuf(n)
			copy(buf, data[:n])
			b.pendq.Push(ntbDelivery{target: w.target, dst: dst, buf: buf, done: cb})
			b.link.Send(pcie.WireBytes(n), b.deliver)
		}
		data = data[n:]
	}
}

// WriteRaw forwards data as a single compact message occupying exactly
// wireBytes on the fabric — the doorbell/scratchpad-style write NTB
// adapters provide for tiny control messages (used for shadow-counter
// updates, whose cost the paper quantifies in Fig 13).
func (w *Window) WriteRaw(off int64, data []byte, wireBytes int, done func()) {
	b := w.bridge
	b.mChunks.Inc()
	if b.remote != b.env {
		b.sendCross(w.target, w.base+off, data, wireBytes, done)
		return
	}
	buf := b.getBuf(len(data))
	copy(buf, data)
	b.pendq.Push(ntbDelivery{target: w.target, dst: w.base + off, buf: buf, done: done})
	b.link.Send(wireBytes, b.deliver)
}
