// Package ntb models PCIe Non-Transparent Bridging (paper §2.3): the
// interconnect the Villars Transport module uses to ship the fast-side
// write stream to peer devices. NTB forwards TLPs between two hosts' PCIe
// systems with only address translation — no protocol conversion — which is
// why the model is just another link plus a window mapping.
//
// A bridge has one delivery path: every chunk rides a crossSlot through the
// group mailbox (sim.Env.PostTo). The slot lends its buffer to the
// receiving member for the delivery and takes it back by virtual time
// alone, once the group's settled horizon has passed the arrival. A bridge
// whose two ends are one Env posts to itself, which schedules the landing
// directly at the link arrival. The path allocates nothing in steady state,
// and the target must copy what it keeps.
package ntb

import (
	"slices"
	"time"

	"xssd/internal/fault"
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
// to the sender's Env; every delivery goes through the group mailbox at its
// arrival time, in a slot from the bridge's own ring (sendCross). The hop
// latency (1.1µs default) exceeds the group's 1µs quantum, so barrier
// clamping never distorts arrival times; with a shorter hop a chunk lands
// at the clamped instant PostTo reports.
type Bridge struct {
	env    *sim.Env
	remote *sim.Env // Env the window targets live in; may be env itself
	link   *sim.Link
	name   string

	// slots holds every chunk slot this bridge has made, as a ring in
	// arrival order with the oldest at slotHead (sendCross). The sender
	// alone writes a slot; the receiving member reads it during the one
	// delivery it was posted for.
	//xssd:pool retain a slot that crossed is not rewritten until the settled horizon has passed its arrival
	slots    []*crossSlot
	slotHead int

	// metrics (ntb/<name>/...)
	mChunks  *obs.Counter
	mDropped *obs.Counter
}

// NewBridgeTo creates a bridge with the given bandwidth and per-hop latency
// over hops daisy-chained adapters (hops >= 1), whose window targets live in
// remote — a different member of the sender's sim.Group, or env itself. The
// bridge and its link, slots, and metrics belong to env (the sender); only
// the final chunk landing crosses to remote.
func NewBridgeTo(env, remote *sim.Env, name string, bandwidth float64, hopLatency time.Duration, hops int) *Bridge {
	if hops < 1 {
		hops = 1
	}
	b := &Bridge{
		env:    env,
		remote: remote,
		link:   env.NewLink("ntb-"+name, bandwidth, time.Duration(hops)*hopLatency),
		name:   name,
	}
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

// crossSlot carries one chunk to its target in the remote Env. run is
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

// nextSlot returns the slot the next chunk rides and makes it
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
// ring, which the remote target copies from. A post to a closed member is
// dropped by the mailbox; its slot comes back by the same rule as any
// other.
//
//xssd:hotpath
//xssd:conduit NTB delivery is the wire itself: bytes land at the remote Env's target at the barrier-merged arrival time, from a slot buffer that, having crossed, is not rewritten until the settled horizon has passed its arrival
func (b *Bridge) sendCross(target pcie.Target, dst int64, data []byte, wireBytes int) {
	s := b.nextSlot()
	s.target, s.dst = target, dst
	s.buf = append(s.buf[:0], data...)
	s.at = b.env.PostTo(b.remote, b.link.SendTimed(wireBytes), s.run)
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
// The caller is not blocked (a hardware mirror engine feeds the wire).
func (w *Window) Write(off int64, data []byte) {
	b := w.bridge
	for len(data) > 0 {
		n := min(pcie.MaxPayload, len(data))
		dst := w.base + off
		off += int64(n)
		// Fault plan: the ntb.deliver point can drop or delay one TLP
		// chunk on the fabric. A dropped chunk is exactly the silence a
		// real lost TLP causes; higher layers must recover by timeout (the
		// transport's repair process does).
		b.mChunks.Inc()
		switch d := fault.CheckEnv(b.env, fault.NTBDeliver, b.name, 1); d.Act {
		case fault.ActionDrop, fault.ActionFail:
			b.mDropped.Inc()
		case fault.ActionDelay:
			// A delayed chunk is sent when its timer fires, interleaving
			// with later traffic; until then the closure owns a private
			// copy, and the chunk takes its slot only when the timer fires.
			chunk := append([]byte(nil), data[:n]...)
			b.env.After(d.Dur, func() { b.sendCross(w.target, dst, chunk, pcie.WireBytes(n)) })
		default:
			b.sendCross(w.target, dst, data[:n], pcie.WireBytes(n))
		}
		data = data[n:]
	}
}

// WriteRaw forwards data as a single compact message occupying exactly
// wireBytes on the fabric — the doorbell/scratchpad-style write NTB
// adapters provide for tiny control messages (used for shadow-counter
// updates, whose cost the paper quantifies in Fig 13).
func (w *Window) WriteRaw(off int64, data []byte, wireBytes int) {
	w.bridge.mChunks.Inc()
	w.bridge.sendCross(w.target, w.base+off, data, wireBytes)
}
