// Package failover implements host-side primary-failure handling for a
// replicated X-SSD cluster (paper §4.2, §7.1): a watchdog process detects
// the primary's death through the status register, elects the surviving
// secondary with the longest persisted prefix, promotes it, backfills the
// other survivors' missing bytes from the database's retained log stream,
// and resumes the host write stream at the promoted device's credit
// counter — so every transaction the old primary acknowledged stays
// readable and no record is applied twice.
//
// The paper assigns the promotion/demotion sequences and catch-up data
// transfer to the database system; this package is that database-side
// logic, built only on architecturally visible state (status registers,
// credit counters, the vendor admin commands repl wraps).
package failover

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"xssd/internal/core"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/repl"
	"xssd/internal/sim"
	"xssd/internal/wal"
)

// ErrTakeoverFailed wraps any error that aborts a takeover attempt; the
// watchdog halts and surfaces it through Manager.Err. Match with
// errors.Is.
var ErrTakeoverFailed = errors.New("failover: takeover failed")

// ErrParallelGroup is New's refusal of a group that is not inline. A
// takeover rewires every survivor directly, which is race-free and exact
// only while all members share one clock. Match with errors.Is.
var ErrParallelGroup = errors.New("failover: group is not inline")

// The watchdog's timing, sized for the simulator's microsecond-scale
// devices: a 50 µs poll with 3 misses detects death in ~150 µs, well under
// any group-commit timeout, and the election budget comfortably outlasts
// the bounded shadow freezes fault plans inject.
const (
	// period is the watchdog's poll interval: how often the primary's
	// status register is read, and the granularity of every wait inside a
	// takeover (election retry, fast-side drain).
	period = 50 * time.Microsecond
	// misses is how many consecutive polls must observe StatusPowerLoss
	// before the primary is declared dead (debounces the detector against
	// transient register states).
	misses = 3
	// drainWait is how long the manager waits after declaring the primary
	// dead before electing: the window for the dead device's supercap
	// drain and for the WAL pipeline to observe the lost sink.
	drainWait = 200 * time.Microsecond
	// electWait bounds the election phase: how long the manager keeps
	// retrying ErrNoCandidate (for example while the next chain link's
	// shadow reporting is frozen) and waiting for the winner's fast side
	// to go idle before the takeover fails.
	electWait = 50 * time.Millisecond
)

// Takeover records one completed failover.
type Takeover struct {
	// DetectedAt is the virtual time the watchdog declared the primary dead.
	DetectedAt time.Duration
	// PromotedAt is the virtual time the host stream was live again on the
	// new primary (the takeover's end).
	PromotedAt time.Duration
	// Promoted is the new primary's device name.
	Promoted string
	// ResumeAt is the stream offset the host resumed from — the promoted
	// device's persisted prefix after truncation.
	ResumeAt int64
	// Replayed is how many retained stream bytes the WAL re-drove through
	// the new sink (the tail the promoted device was missing).
	Replayed int64
	// Backfilled is how many stream bytes were pushed to lagging survivors
	// before the host resumed (star schemes only; a chain heals through
	// its preserved links).
	Backfilled int64
}

// Manager is the failover watchdog: one deterministic simulator process
// that monitors the cluster's primary and, on death, runs the takeover
// sequence. The WAL must be configured with Retain so the takeover can
// serve backfill and tail-replay bytes (wal.Config).
type Manager struct {
	cluster *repl.Cluster
	lg      *wal.Log
	sink    *wal.VillarsSink

	ctl []*pcie.MMIO // per-device control windows, index-aligned with Devices()

	takeovers []Takeover
	err       error
	stopped   bool

	// metrics (cluster/failover/...)
	mDetections *obs.Counter
	mElections  *obs.Counter
	mPromotions *obs.Counter
	mReplayed   *obs.Counter
	mBackfilled *obs.Counter
	mPromoteLat *obs.Histogram // detection -> stream live again, ns
}

// New starts a failover manager over the cluster. The log's sink must be
// the Villars sink passed here (the manager re-points it at the new
// primary during takeover). env's group, if any, must be inline and stay
// inline: New refuses one that is not with ErrParallelGroup. Watchdogging
// begins immediately; the manager idles until the cluster has a primary.
func New(env *sim.Env, cluster *repl.Cluster, lg *wal.Log, sink *wal.VillarsSink) (*Manager, error) {
	if g := env.Group(); g != nil && !g.Inline() {
		return nil, fmt.Errorf("%w: start it with StartInline and do not call Parallelize", ErrParallelGroup)
	}
	m := &Manager{
		cluster: cluster,
		lg:      lg,
		sink:    sink,
		ctl:     make([]*pcie.MMIO, len(cluster.Devices())),
	}
	sc := obs.For(env).Scope("cluster/failover")
	m.mDetections = sc.Counter("detections")
	m.mElections = sc.Counter("elections")
	m.mPromotions = sc.Counter("promotions")
	m.mReplayed = sc.Counter("replayed_bytes")
	m.mBackfilled = sc.Counter("backfilled_bytes")
	m.mPromoteLat = sc.Histogram("promotion_ns")
	env.Go("failover-watchdog", m.watch)
	return m, nil
}

// Takeovers returns the completed failovers, oldest first.
func (m *Manager) Takeovers() []Takeover {
	return append([]Takeover(nil), m.takeovers...)
}

// Err returns the error that halted the watchdog, or nil.
func (m *Manager) Err() error { return m.err }

// Stop retires the watchdog at its next poll.
func (m *Manager) Stop() { m.stopped = true }

// mmio returns the (lazily created) uncached control window of device i.
func (m *Manager) mmio(i int) *pcie.MMIO {
	if m.ctl[i] == nil {
		m.ctl[i] = pcie.NewMMIO(m.cluster.Devices()[i].ControlRegion(), pcie.Uncached)
	}
	return m.ctl[i]
}

// readStatus polls device i's status register (a non-posted MMIO load).
func (m *Manager) readStatus(p *sim.Proc, i int) int64 {
	return int64(binary.LittleEndian.Uint64(m.mmio(i).Load(p, core.RegStatus, 8)))
}

// watch is the watchdog process: poll the primary's status register every
// period and run a takeover after misses consecutive power-loss readings.
func (m *Manager) watch(p *sim.Proc) {
	missed := 0
	for {
		p.Sleep(period)
		if m.stopped {
			return
		}
		prim := m.cluster.Primary()
		if prim == nil {
			continue // cluster not set up yet
		}
		if m.readStatus(p, slices.Index(m.cluster.Devices(), prim))&core.StatusPowerLoss != 0 {
			missed++
		} else {
			missed = 0
		}
		if missed < misses {
			continue
		}
		missed = 0
		if err := m.takeover(p); err != nil {
			m.err = fmt.Errorf("%w: %w", ErrTakeoverFailed, err)
			return
		}
	}
}

// takeover runs the full sequence: drain, halt the log, elect, truncate,
// promote, backfill the other survivors, rebind the sink, resume the host
// stream.
//
//xssd:conduit runs on an inline group (New): every member reads one clock, so touching every survivor's state races nothing and lands at the caller's time
func (m *Manager) takeover(p *sim.Proc) error {
	detected := p.Now()
	m.mDetections.Inc()

	// Let the dead device's supercap drain finish and give any in-flight
	// flush time to observe the lost sink.
	p.Sleep(drainWait)

	// The takeover needs the log pipeline halted. A mid-flight flush must
	// fail on its own (racing it would corrupt the buffer); with nothing
	// in flight the flusher is parked and is halted explicitly.
	for !m.lg.Dead() && m.lg.Backlog() > 0 {
		p.Sleep(period)
	}
	if !m.lg.Dead() {
		m.lg.Halt()
	}

	// Election, retried while no survivor qualifies (a frozen next chain
	// link un-freezes; a bounded budget keeps a dead cluster from hanging
	// the watchdog).
	deadline := p.Now() + electWait
	var idx int
	for {
		var err error
		idx, err = m.cluster.Elect()
		if err == nil {
			break
		}
		if !errors.Is(err, repl.ErrNoCandidate) {
			return err
		}
		if p.Now() >= deadline {
			return fmt.Errorf("election timed out after %v: %w", electWait, err)
		}
		p.Sleep(period)
	}
	m.mElections.Inc()
	winner := m.cluster.Devices()[idx]

	// The winner's frontier is authoritative only once its intake has
	// fully retired (nothing queued behind the counter).
	for !winner.FastSideIdle() {
		if p.Now() >= deadline {
			return fmt.Errorf("fast side of %s never went idle", winner.Name())
		}
		p.Sleep(period)
	}
	fr, err := winner.TruncateToCredit()
	if err != nil {
		return fmt.Errorf("truncate %s: %w", winner.Name(), err)
	}
	if err := m.cluster.Promote(p, idx); err != nil {
		return fmt.Errorf("promote %s: %w", winner.Name(), err)
	}

	// Promote rebuilds a star's peer set from scratch, so survivors lagging
	// the new primary have holes no retransmission window covers: backfill
	// them from the database's retained stream before the host resumes
	// (the catch-up transfer the paper assigns to the database, §7.1). A
	// chain keeps its links, so downstream holes heal through the ordinary
	// repair path.
	var backfilled int64
	if m.cluster.Scheme() != core.Chain {
		for i, d := range m.cluster.Devices() {
			if i == idx || d.PowerLost() {
				continue
			}
			f := d.CMB().Ring().Frontier()
			if f >= fr {
				continue
			}
			data, err := m.lg.StreamRange(f, fr)
			if err != nil {
				return fmt.Errorf("backfill source for %s: %w", d.Name(), err)
			}
			n, err := winner.Transport().Backfill(p, d, f, data)
			backfilled += n
			if err != nil {
				return fmt.Errorf("backfill %s: %w", d.Name(), err)
			}
		}
	}

	// Resume the host stream on the new primary: rebind the sink at the
	// promoted frontier, then restart the pipeline — replaying the
	// retained tail the promoted device is missing, or skipping buffered
	// bytes it already persisted beyond the old durable horizon.
	m.sink.Rebind(p, winner, fr)
	replayed, err := m.lg.Resume(p, m.sink, fr)
	if err != nil {
		return fmt.Errorf("resume stream at %d on %s: %w", fr, winner.Name(), err)
	}

	m.mPromotions.Inc()
	m.mReplayed.Add(replayed)
	m.mBackfilled.Add(backfilled)
	m.mPromoteLat.Since(detected)
	m.takeovers = append(m.takeovers, Takeover{
		DetectedAt: detected,
		PromotedAt: p.Now(),
		Promoted:   winner.Name(),
		ResumeAt:   fr,
		Replayed:   replayed,
		Backfilled: backfilled,
	})
	return nil
}
