package wal

import (
	"time"

	"xssd/internal/fifo"
	"xssd/internal/obs"
	"xssd/internal/sim"
)

// Pipeline is the async group-commit pipeline: a worker submits
// transactions as fast as the engine produces them (db.Tx.CommitAsync
// returns an LSN without waiting for the flusher) and the pipeline keeps
// up to depth commit tokens in flight, blocking only when the window is
// full — ERMIA-style pipelined commit with bounded in-flight depth
// instead of a per-transaction durability stall.
//
// Retirement order is submission order: LSNs are monotone and the WAL's
// durable frontier advances monotonically, so the FIFO head is always the
// next token to retire. A halted log (ErrSinkLost) strands the pipeline;
// failover flows drain or discard it before Resume rebinds the sink.
type Pipeline struct {
	log     *Log
	depth   int
	toks    fifo.Queue[pipeEntry]
	retired int64
	mLat    *obs.Histogram // submit→durable, ns
	mDepth  *obs.Gauge
}

// pipeEntry is one in-flight commit: its LSN and submission time.
type pipeEntry struct {
	lsn int64
	at  time.Duration
}

// NewPipeline creates a pipeline of the given depth (minimum 1) over
// log. A non-zero scope registers the pipeline's instruments: the
// submit→durable latency histogram "commit_ns" and the in-flight depth
// gauge "inflight".
func NewPipeline(log *Log, depth int, sc obs.Scope) *Pipeline {
	if depth < 1 {
		depth = 1
	}
	return &Pipeline{
		log:    log,
		depth:  depth,
		mLat:   sc.Histogram("commit_ns"),
		mDepth: sc.Gauge("inflight"),
	}
}

// Submit enqueues a committed transaction's LSN (as returned by
// CommitAsync; lsn <= 0, a read-only transaction, is a no-op). When the
// pipeline already holds depth tokens it blocks until the oldest one is
// durable — the only stall the async path has.
//
//xssd:hotpath
func (pl *Pipeline) Submit(p *sim.Proc, lsn int64) {
	pl.retire()
	if lsn <= 0 {
		return
	}
	if pl.toks.Len() >= pl.depth {
		oldest, _ := pl.toks.Peek()
		pl.log.WaitDurable(p, oldest.lsn)
		pl.retire()
	}
	pl.toks.Push(pipeEntry{lsn: lsn, at: p.Now()})
	pl.mDepth.Set(int64(pl.toks.Len()))
}

// retire pops every token the WAL's durable frontier already covers.
//
//xssd:hotpath
func (pl *Pipeline) retire() {
	durable := pl.log.DurableLSN()
	for e, ok := pl.toks.Peek(); ok && e.lsn <= durable; e, ok = pl.toks.Peek() {
		pl.toks.Pop()
		pl.retired++
		if pl.mLat != nil {
			pl.mLat.ObserveDuration(pl.log.env.Now() - e.at)
		}
	}
	pl.mDepth.Set(int64(pl.toks.Len()))
}

// Inflight returns the number of submitted-but-not-yet-durable tokens.
func (pl *Pipeline) Inflight() int { return pl.toks.Len() }

// Retired returns how many tokens have become durable.
func (pl *Pipeline) Retired() int64 { return pl.retired }

// Depth returns the pipeline's in-flight bound.
func (pl *Pipeline) Depth() int { return pl.depth }

// Latency returns the submit→durable histogram (nil without a scope).
func (pl *Pipeline) Latency() *obs.Histogram { return pl.mLat }
