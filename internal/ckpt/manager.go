package ckpt

import (
	"errors"
	"fmt"
	"time"

	"xssd/internal/btree"
	"xssd/internal/db"
	"xssd/internal/obs"
	"xssd/internal/sim"
	"xssd/internal/wal"
)

// Config tunes a checkpoint Manager.
type Config struct {
	// Interval is the pause between checkpoint attempts. 0 means 5ms.
	Interval time.Duration
	// Scope registers manager instruments (completed, aborted,
	// pages_written counters and a duration histogram). The zero Scope
	// keeps the manager silent.
	Scope obs.Scope
}

// Manager runs fuzzy checkpoints against a paged engine as a simulated
// process. Start it with env.Go("ckpt", m.Run); stop it with Stop.
type Manager struct {
	eng *db.Engine
	log *wal.Log
	cfg Config

	stop     bool
	inFlight bool
	idle     *sim.Signal
	err      error // why Run stopped for good; nil while it runs

	completed int64

	mCompleted, mAborted, mPages *obs.Counter
	mDur                         *obs.Histogram
}

// NewManager builds a manager over eng (which must be paged) and its WAL.
//
// A non-paged eng is API misuse, and the panic says so: a row map has no
// pages to checkpoint. Every caller builds eng with db.NewPaged in the
// statement before — the paged chaos scenario, the paged perf cell and
// the paged stack benchmark.
func NewManager(eng *db.Engine, log *wal.Log, cfg Config) *Manager {
	if !eng.Paged() {
		panic("ckpt: manager over a non-paged engine")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Millisecond
	}
	m := &Manager{eng: eng, log: log, cfg: cfg, idle: eng.Env().NewSignal()}
	sc := cfg.Scope
	m.mCompleted = sc.Counter("completed")
	m.mAborted = sc.Counter("aborted")
	m.mPages = sc.Counter("pages_written")
	m.mDur = sc.Histogram("duration_ns")
	return m
}

// Completed returns the number of checkpoints that reached their durable
// record.
func (m *Manager) Completed() int64 { return m.completed }

// Err returns the error that stopped Run for good: a page store with no
// slot left for the tree's page ids (btree.ErrStoreFull). It is nil while
// Run keeps going, and after a Stop or a dead log.
func (m *Manager) Err() error { return m.err }

// Stop asks the manager to exit after the current attempt (if any).
func (m *Manager) Stop() { m.stop = true }

// WaitIdle blocks until no checkpoint attempt is in flight. Call after
// Stop when the harness needs the device quiet.
func (m *Manager) WaitIdle(p *sim.Proc) {
	p.WaitFor(m.idle, func() bool { return !m.inFlight })
}

// Run is the manager process body: checkpoint, sleep, repeat.
func (m *Manager) Run(p *sim.Proc) {
	for {
		p.Sleep(m.cfg.Interval)
		if m.stop {
			return
		}
		if _, err := m.RunOnce(p); err != nil {
			// A failed attempt aborted cleanly (images re-queued); the
			// next round retries. A full store and device death end the
			// loop — no retry can succeed.
			if errors.Is(err, btree.ErrStoreFull) {
				m.err = err
				return
			}
			if m.log != nil && m.log.Dead() {
				return
			}
		}
		if m.stop {
			return
		}
	}
}

// RunOnce executes one full checkpoint attempt and reports whether it
// completed. The attempt aborts — re-queueing its images for the next one
// — if the page writes fail, the sync detects a lost write, or the record
// never becomes durable (device died under it).
func (m *Manager) RunOnce(p *sim.Proc) (bool, error) {
	m.inFlight = true
	defer func() {
		m.inFlight = false
		m.idle.Broadcast()
	}()
	start := m.eng.Env().Now()
	ck, err := m.eng.BeginCheckpoint(p)
	if err != nil {
		return false, err
	}
	// An abort leaves the snapshot's images where capture registered them,
	// in the pager's pendingRewrite: fetches keep serving those pages from
	// memory instead of the half-written (or silently lost) slots, and the
	// next snapshot carries every one forward — re-encoding pages dirtied
	// again since, reusing the captured image otherwise — until a
	// checkpoint commits. Pages freed since the snapshot already dropped
	// their entries.
	pg := m.eng.Pager()
	if err := pg.WriteImages(p, ck.Snap.Images); err != nil {
		m.mAborted.Inc()
		return false, fmt.Errorf("ckpt: write images: %w", err)
	}
	if err := pg.Sync(p); err != nil {
		m.mAborted.Inc()
		return false, fmt.Errorf("ckpt: sync: %w", err)
	}
	lsn := m.log.Append(wal.Record{Payload: FromCheckpoint(ck).Encode()})
	if !m.log.WaitDurableOrDead(p, lsn) {
		m.mAborted.Inc()
		return false, fmt.Errorf("ckpt: record lost: log dead before lsn %d", lsn)
	}
	pg.CommitCheckpoint(ck.Snap)
	m.completed++
	m.mCompleted.Inc()
	m.mPages.Add(int64(len(ck.Snap.Images)))
	m.mDur.Observe(int64(m.eng.Env().Now() - start))
	return true, nil
}
