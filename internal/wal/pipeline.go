package wal

import (
	"time"

	"xssd/internal/fifo"
	"xssd/internal/sim"
)

// Pipeline is ERMIA-style pipelined commit (paper §6.1): a worker submits
// each commit's LSN as soon as db.Tx.CommitAsync returns it and goes on
// with its next transaction, and one acker process acknowledges the
// commits in LSN order, each at the instant the log makes it durable —
// the durability token of paper §5.1 retiring when the log reaches it.
//
// LSNs are submitted in increasing order and the durable frontier only
// advances, so the FIFO head is always the next commit to acknowledge. A
// halted log (ErrSinkLost) strands the acker at its head entry.
type Pipeline struct {
	log      *Log
	ack      func(start, durable time.Duration)
	pending  fifo.Queue[pipeEntry]
	arrived  *sim.Signal // a Submit into an empty FIFO wakes the acker
	acked    *sim.Signal // each ack wakes WaitInflight
	inflight int         // submitted and not yet acknowledged
}

// pipeEntry is one commit waiting for its ack: its LSN and the start
// instant its submitter passed.
type pipeEntry struct {
	lsn   int64
	start time.Duration
}

// NewPipeline starts the acker process on log's environment. It calls
// ack(start, durable) once per submitted commit, in LSN order, where
// start is the instant Submit was given and durable the instant the log
// became durable up to the commit's LSN.
func NewPipeline(log *Log, ack func(start, durable time.Duration)) *Pipeline {
	pl := &Pipeline{log: log, ack: ack, arrived: log.env.NewSignal(), acked: log.env.NewSignal()}
	log.env.Go("pipeline-acker", pl.acker)
	return pl
}

// Submit hands the pipeline a commit's record end LSN (as CommitAsync
// returns it; a read-only commit has no record and is not submitted) and
// the instant its latency counts from. It never blocks: WaitInflight is
// the back-pressure.
//
//xssd:hotpath
func (pl *Pipeline) Submit(lsn int64, start time.Duration) {
	pl.pending.Push(pipeEntry{lsn: lsn, start: start})
	pl.inflight++
	pl.arrived.Broadcast()
}

// WaitInflight blocks while n or more submitted commits are not yet
// acknowledged, so that a Submit after it keeps at most n in flight — the
// commit-count analogue of Log.WaitBacklog.
func (pl *Pipeline) WaitInflight(p *sim.Proc, n int) {
	p.WaitFor(pl.acked, func() bool { return pl.inflight < n })
}

// acker is the acknowledging process: it takes the oldest commit, waits
// until the log is durable up to it, and acknowledges it at that instant.
func (pl *Pipeline) acker(p *sim.Proc) {
	for {
		e, ok := pl.pending.Pop()
		if !ok {
			p.Wait(pl.arrived)
			continue
		}
		pl.log.WaitDurable(p, e.lsn)
		pl.inflight--
		pl.ack(e.start, p.Now())
		pl.acked.Broadcast()
	}
}
