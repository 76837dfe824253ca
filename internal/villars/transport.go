package villars

import (
	"fmt"
	"time"

	"xssd/internal/core"
	"xssd/internal/fault"
	"xssd/internal/fifo"
	"xssd/internal/ntb"
	"xssd/internal/obs"
	"xssd/internal/pool"
	"xssd/internal/sim"
)

// transportModule mirrors the fast-side write stream to peer devices over
// NTB and maintains shadow counters (paper §4.2, Fig 6). It is optional:
// in Standalone mode only CMB and Destage operate.
type transportModule struct {
	dev    *Device
	mode   core.TransportMode
	scheme core.ReplicationScheme

	// primary state: one mirror flow per secondary (the paper forgoes NTB
	// multicast so each secondary receives at its own pace).
	peers []*peerLink

	// secondary state
	reportTo     *ntb.Window // counter-update path back to the primary
	reportPeerID int
	reporting    bool          // a reportStep is scheduled
	reportLate   bool          // that step is the tail of a fault-delayed update
	reportNext   func()        // reportStep, bound once
	frozenUntil  time.Duration // fault plan: suppress reports until then
	// reportMsg is the one update message a step fills and sends; the
	// bridge copies it before WriteRaw returns.
	reportMsg [core.CounterUpdateBytes]byte

	// repair state: a background process resending mirror chunks whose
	// bytes a peer's shadow counter has not covered within the repair
	// timeout (lost or delayed mirror traffic — the fault plan's
	// transport.mirror and ntb.deliver points).
	repairing bool

	// ShadowAdvanced broadcasts whenever any shadow counter moves; the
	// benchmark harness and x_fsync-over-replication wait on it.
	ShadowAdvanced *sim.Signal

	// metrics (<dev>/transport/...)
	mMirroredBytes     *obs.Counter
	mCounterUpdates    *obs.Counter
	mUpdatesSent       *obs.Counter
	mMirrorDrops       *obs.Counter
	mMirrorDelays      *obs.Counter
	mRepairResends     *obs.Counter
	mUpdatesSuppressed *obs.Counter
	mUpdateLag         *obs.Histogram
}

// peerLink is the primary's view of one secondary.
type peerLink struct {
	id int
	//xssd:foreign
	dev      *Device
	window   *ntb.Window // primary -> secondary CMB data
	shadow   int64       // last reported secondary credit counter
	lastSeen time.Duration
	//xssd:pool retain
	unacked fifo.Queue[mirrorChunk] // sent but not yet covered by the shadow counter
	//xssd:pool put
	bufs pool.Free[[]byte] // recycled chunk payloads
}

// pending returns the not-yet-covered retransmission window.
//
//xssd:pool alias
func (pl *peerLink) pending() []mirrorChunk { return pl.unacked.Items() }

// mirrorChunk is one mirrored TLP retained for retransmission until the
// peer's shadow counter passes it.
type mirrorChunk struct {
	off    int64
	data   []byte
	sentAt time.Duration
}

func newTransportModule(d *Device) *transportModule {
	t := &transportModule{
		dev:            d,
		mode:           core.Standalone,
		scheme:         core.Eager,
		ShadowAdvanced: d.env.NewSignal(),
	}
	t.reportNext = t.reportStep
	sc := obs.For(d.env).Scope(d.cfg.Name + "/transport")
	t.mMirroredBytes = sc.Counter("mirrored_bytes")
	t.mCounterUpdates = sc.Counter("counter_updates")
	t.mUpdatesSent = sc.Counter("updates_sent")
	t.mMirrorDrops = sc.Counter("mirror_drops")
	t.mMirrorDelays = sc.Counter("mirror_delays")
	t.mRepairResends = sc.Counter("repair_resends")
	t.mUpdatesSuppressed = sc.Counter("updates_suppressed")
	// update_lag_bytes: at each accepted shadow-counter update, the local
	// CMB ring frontier minus the peer's shadow counter, in bytes.
	t.mUpdateLag = sc.Histogram("update_lag_bytes")
	sc.GaugeFunc("peers", func() int64 { return int64(len(t.peers)) })
	return t
}

// Mode returns the current transport mode.
func (t *transportModule) Mode() core.TransportMode { return t.mode }

// Scheme returns the active replication scheme.
func (t *transportModule) Scheme() core.ReplicationScheme { return t.scheme }

// SetScheme selects which counter combination the device reports.
func (t *transportModule) SetScheme(s core.ReplicationScheme) { t.scheme = s }

// setMode switches the transport role (vendor admin command; paper §7.1
// describes promotion/demotion as the database's responsibility).
func (t *transportModule) setMode(m core.TransportMode) {
	if t.mode == m {
		return
	}
	t.mode = m
	if m == core.Secondary && t.reportTo != nil && !t.reporting {
		t.startReporting()
	}
}

// AddPeer attaches a secondary behind bridge: the primary gets a mirror
// window onto the secondary's CMB, and the secondary gets a counter-report
// window back. Returns the peer id.
func (t *transportModule) AddPeer(sec *Device, toSec, toPrim *ntb.Bridge) int {
	id := len(t.peers)
	pl := &peerLink{
		id:     id,
		dev:    sec,
		window: toSec.NewWindow(sec.fs.cmb, 0),
	}
	t.peers = append(t.peers, pl)
	// Per-peer shadow telemetry (<dev>/transport/peer<id>/...). Lookups go
	// through t.peers by index so the gauges survive ClearPeers/AddPeer
	// re-wiring after a promotion (GaugeFunc re-registration replaces the
	// callback).
	sc := obs.For(t.dev.env).Scope(t.dev.cfg.Name + "/transport").Sub(fmt.Sprintf("peer%d", id))
	sc.GaugeFunc("shadow", func() int64 { return t.Shadow(id) })
	sc.GaugeFunc("lag", func() int64 {
		if id >= len(t.peers) {
			return 0
		}
		return t.dev.fs.cmb.ring.Frontier() - t.peers[id].shadow
	})
	sc.GaugeFunc("unacked", func() int64 {
		if id >= len(t.peers) {
			return 0
		}
		return int64(len(t.peers[id].pending()))
	})
	sec.transport.reportTo = toPrim.NewWindow(counterPort{t}, 0)
	sec.transport.reportPeerID = id
	if sec.transport.mode == core.Secondary && !sec.transport.reporting {
		sec.transport.startReporting()
	}
	if !t.repairing {
		t.startRepair()
	}
	return id
}

// startRepair launches the retransmission process: every half repair
// timeout it resends unacked mirror chunks older than the timeout. The
// process exits when the device has no peers (post-demotion).
func (t *transportModule) startRepair() {
	t.repairing = true
	t.dev.env.Go("mirror-repair-"+t.dev.cfg.Name, func(p *sim.Proc) {
		for {
			if len(t.peers) == 0 || t.dev.powerLost {
				// No peers (post-demotion) or the device is dead: a
				// power-lost device must never push more data onto the
				// fabric, or a promoted successor would see traffic "from
				// beyond the grave" racing its own stream.
				t.repairing = false
				return
			}
			p.Sleep(t.dev.cfg.RepairTimeout / 2)
			now := p.Now()
			for _, pl := range t.peers {
				pend := pl.pending()
				for i := range pend {
					c := &pend[i]
					if now-c.sentAt < t.dev.cfg.RepairTimeout {
						continue
					}
					pl.window.Write(c.off, c.data)
					c.sentAt = now
					t.mRepairResends.Inc()
				}
			}
		}
	})
}

// ClearPeers detaches every secondary (used when re-wiring roles after a
// promotion). The secondaries' report windows are left in place; they stop
// reporting when their mode changes.
func (t *transportModule) ClearPeers() {
	t.peers = nil
}

// Peers returns the number of attached secondaries.
func (t *transportModule) Peers() int { return len(t.peers) }

// mirror forwards an arriving CMB TLP to every peer. Primaries always
// mirror; a Secondary with downstream peers relays — the chain-replication
// topology of §4.2, where each server forwards to the next in the chain.
// Every chunk is retained per peer until that peer's shadow counter
// covers it, so the repair process can resend traffic a fault plan drops
// or delays (ring rewrites of the same bytes are idempotent).
//
//xssd:hotpath
func (t *transportModule) mirror(off int64, data []byte) {
	if t.mode == core.Standalone || len(t.peers) == 0 {
		return
	}
	now := t.dev.env.Now()
	for _, pl := range t.peers {
		buf := tlpBuf(&pl.bufs, len(data))
		copy(buf, data)
		pl.unacked.Push(mirrorChunk{off: off, data: buf, sentAt: now})
		switch d := fault.CheckEnv(t.dev.env, fault.TransportMirror, t.dev.cfg.Name, 1); d.Act {
		case fault.ActionDrop, fault.ActionFail:
			// Lost on the fabric; the repair process will resend.
			t.mMirrorDrops.Inc()
		case fault.ActionDelay:
			t.mMirrorDelays.Inc()
			// The delayed send needs its own copy: the pooled unacked
			// buffer may be covered and recycled before the timer fires.
			//xssd:ignore hotpathalloc delayed-fault path must take the §9 private copy
			delayed := append([]byte(nil), data...)
			pl := pl
			//xssd:ignore hotpathalloc delayed-fault timer fires off the fast path
			t.dev.env.After(d.Dur, func() { pl.window.Write(off, delayed) })
		default:
			pl.window.Write(off, buf)
		}
	}
	t.dev.tracer.Record(obs.Mirror, t.dev.cfg.Name, off, int64(len(data)))
	t.mMirroredBytes.Add(int64(len(data)) * int64(len(t.peers)))
}

// counterPort receives shadow-counter update messages on the primary.
type counterPort struct{ t *transportModule }

// MemWrite decodes a counter update: the peer id rides in the address, the
// counter value in the first 8 payload bytes.
func (c counterPort) MemWrite(off int64, data []byte) {
	id := int(off)
	if id < 0 || id >= len(c.t.peers) || len(data) < 8 {
		return
	}
	var v int64
	for i := 0; i < 8; i++ {
		v |= int64(data[i]) << (8 * i)
	}
	pl := c.t.peers[id]
	pl.lastSeen = c.t.dev.env.Now()
	if v > pl.shadow {
		pl.shadow = v
		// Everything below the reported frontier is persisted remotely;
		// drop it from the retransmission buffer and recycle its payload.
		for c, ok := pl.unacked.Peek(); ok && c.off+int64(len(c.data)) <= v; c, ok = pl.unacked.Peek() {
			pl.unacked.Pop()
			pl.bufs.Put(c.data)
		}
		c.t.counterUpdateObserved(pl)
		c.t.dev.tracer.Record(obs.ShadowUpdate, c.t.dev.cfg.Name, int64(id), v)
		c.t.ShadowAdvanced.Broadcast()
	}
}

// MemRead is unused on the counter port.
func (c counterPort) MemRead(off int64, dst []byte) { clear(dst) }

// counterUpdateObserved records one accepted shadow-counter update and how
// far the peer still trails the local frontier at that instant — the
// replication-lag distribution behind paper Fig 13.
func (t *transportModule) counterUpdateObserved(pl *peerLink) {
	t.mCounterUpdates.Inc()
	if lag := t.dev.fs.cmb.ring.Frontier() - pl.shadow; lag >= 0 {
		t.mUpdateLag.Observe(lag)
	}
}

// startReporting starts the secondary's periodic shadow-counter update
// chain (paper §4.2: "the frequency with which it does so is adjustable").
// At the fastest setting it runs every 400 ns on every secondary, so it is
// a scheduler callback that re-arms itself, not a process.
func (t *transportModule) startReporting() {
	t.reporting = true
	t.dev.env.After(0, t.reportNext)
}

// reportStep sends one counter update — or skips it, under the fault plan —
// and re-arms itself for the next; it stops when the device leaves the
// Secondary role.
//
//xssd:hotpath
func (t *transportModule) reportStep() {
	env := t.dev.env
	suppress := false
	if t.reportLate {
		// The tail of an update the fault plan delayed: the process form
		// slept in mid-iteration, so it goes out without another look at
		// the role or the plan.
		t.reportLate = false
	} else {
		if t.mode != core.Secondary || t.reportTo == nil {
			t.reporting = false
			return
		}
		// Fault plan: the transport.shadow point can drop one update,
		// delay it, or freeze reporting for a stretch — the stale shadow
		// counter scenario the status register must surface.
		switch d := fault.CheckEnv(env, fault.TransportShadow, t.dev.cfg.Name, 1); d.Act {
		case fault.ActionFreeze:
			t.frozenUntil = env.Now() + d.Dur
		case fault.ActionDrop, fault.ActionFail:
			suppress = true
		case fault.ActionDelay:
			t.reportLate = true
			env.After(d.Dur, t.reportNext)
			return
		}
	}
	if suppress || env.Now() < t.frozenUntil {
		t.mUpdatesSuppressed.Inc()
	} else {
		// The update fires every period unconditionally — the paper's
		// Fig 13 measures exactly this fixed-rate traffic (2.35% of the
		// fabric at 0.4 µs).
		v := t.reportValue()
		for i := 0; i < 8; i++ {
			t.reportMsg[i] = byte(v >> (8 * i))
		}
		t.reportTo.WriteRaw(int64(t.reportPeerID), t.reportMsg[:8], core.CounterUpdateBytes)
		t.mUpdatesSent.Inc()
	}
	env.After(t.dev.cfg.ShadowUpdatePeriod, t.reportNext)
}

// reportValue is what a secondary reports upstream: its local persist
// frontier, or — when it relays to downstream chain peers — the minimum
// of its own frontier and theirs, so the head of the chain learns
// whole-chain persistence from a single shadow counter (paper §4.2:
// "all but the last server would have a single shadow counter from the
// server in the chain").
func (t *transportModule) reportValue() int64 {
	v := t.dev.fs.cmb.ring.Frontier()
	for _, pl := range t.peers {
		if pl.shadow < v {
			v = pl.shadow
		}
	}
	return v
}

// effectiveCredit combines local and shadow counters per the active
// scheme. local is the device's own persist frontier.
func (t *transportModule) effectiveCredit(local int64) int64 {
	if t.mode != core.Primary || len(t.peers) == 0 {
		return local
	}
	switch t.scheme {
	case Lazy:
		return local
	case Chain:
		return t.peers[len(t.peers)-1].shadow
	default: // Eager
		min := local
		for _, pl := range t.peers {
			if pl.shadow < min {
				min = pl.shadow
			}
		}
		return min
	}
}

// UpdatesSent returns how many shadow-counter update messages this
// device's secondary role has emitted.
func (t *transportModule) UpdatesSent() int64 { return t.mUpdatesSent.Value() }

// ShadowFrozen reports whether this device's own shadow-counter reporting
// is currently suppressed by a freeze (fault plan, transport.shadow
// point). A frozen secondary's upstream view of its persisted prefix is
// stale, so a failover manager must not elect it (the status register
// surfaces the same condition as StatusShadowFrozen).
func (t *transportModule) ShadowFrozen() bool {
	return t.mode == core.Secondary && t.dev.env.Now() < t.frozenUntil
}

// backfillChunk bounds one catch-up transfer unit so the peer's intake
// queue is never overrun even with several chunks in flight.
const backfillChunk = 1024

// Backfill re-sends the stream bytes [off, off+len(data)) to peer sec —
// the catch-up data transfer the paper leaves to the database (§7.1): a
// freshly promoted primary drives each laggard peer's hole from the
// host's retained log before normal mirroring resumes. Chunks are
// retained in the peer's retransmission window like ordinary mirror
// traffic, so dropped backfill heals through the repair process. The call
// paces itself against the peer's shadow counter and blocks until the
// whole range is covered. It returns the number of bytes sent.
//
//xssd:conduit catch-up transfer driven by the promoted primary; the laggard peer is reached only through its NTB window and power/shadow state
func (t *transportModule) Backfill(p *sim.Proc, sec *Device, off int64, data []byte) (int64, error) {
	var pl *peerLink
	for _, cand := range t.peers {
		if cand.dev == sec {
			pl = cand
			break
		}
	}
	if pl == nil {
		return 0, fmt.Errorf("villars: backfill: %s is not a peer of %s", sec.Name(), t.dev.cfg.Name)
	}
	// awaitShadow blocks until the peer's shadow counter reaches target,
	// re-checking every repair timeout so a peer that dies mid-transfer
	// (whose counter will never move again) is still noticed.
	awaitShadow := func(p *sim.Proc, target int64) error {
		for pl.shadow < target {
			if sec.powerLost {
				return fmt.Errorf("villars: backfill: peer %s lost power mid-transfer", sec.Name())
			}
			ticked := false
			t.dev.env.After(t.dev.cfg.RepairTimeout, func() {
				ticked = true
				t.ShadowAdvanced.Broadcast()
			})
			p.WaitFor(t.ShadowAdvanced, func() bool { return ticked || sec.powerLost || pl.shadow >= target })
		}
		return nil
	}
	budget := int64(sec.fs.queueSize) / 2
	if budget < backfillChunk {
		budget = backfillChunk
	}
	var sent int64
	for len(data) > 0 {
		n := backfillChunk
		if n > len(data) {
			n = len(data)
		}
		buf := tlpBuf(&pl.bufs, n)
		copy(buf, data[:n])
		pl.unacked.Push(mirrorChunk{off: off, data: buf, sentAt: p.Now()})
		pl.window.Write(off, buf)
		t.mMirroredBytes.Add(int64(n))
		off += int64(n)
		sent += int64(n)
		data = data[n:]
		// Keep at most half the peer's intake queue outstanding beyond its
		// shadow counter; repair resends cover dropped chunks, so the
		// counter always catches up while the peer lives.
		if err := awaitShadow(p, off-budget); err != nil {
			return sent, err
		}
	}
	return sent, awaitShadow(p, off)
}

// Shadow returns the primary's shadow counter for a peer.
func (t *transportModule) Shadow(id int) int64 {
	if id < 0 || id >= len(t.peers) {
		return 0
	}
	return t.peers[id].shadow
}

// PeerLastSeen returns the simulated time of the last shadow-counter
// update received from peer id (zero before any update). The stall
// oracle in the chaos suite reads it on the primary's side instead of
// reaching into the secondaries' fault counters.
func (t *transportModule) PeerLastSeen(id int) time.Duration {
	if id < 0 || id >= len(t.peers) {
		return 0
	}
	return t.peers[id].lastSeen
}

// stalled reports whether any peer's shadow counter lags while data is
// outstanding and its last update is older than the stall timeout.
func (t *transportModule) stalled() bool {
	if t.mode != core.Primary {
		return false
	}
	now := t.dev.env.Now()
	local := t.dev.fs.cmb.ring.Frontier()
	for _, pl := range t.peers {
		if pl.shadow < local && now-pl.lastSeen > t.dev.cfg.StallTimeout {
			return true
		}
	}
	return false
}

// Convenient aliases so the package reads like the paper.
const (
	Lazy  = core.Lazy
	Chain = core.Chain
)
