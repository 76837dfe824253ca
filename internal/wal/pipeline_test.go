package wal

import (
	"testing"
	"time"

	"xssd/internal/sim"
)

// pipeAck is one acknowledgement a Pipeline handed back.
type pipeAck struct{ start, durable time.Duration }

// newAckedPipeline returns a pipeline over log that records its acks.
func newAckedPipeline(log *Log) (*Pipeline, *[]pipeAck) {
	var acks []pipeAck
	pl := NewPipeline(log, func(start, durable time.Duration) {
		acks = append(acks, pipeAck{start, durable})
	})
	return pl, &acks
}

// TestPipelineAcksALoneCommitWhenDurable submits one commit and nothing
// after it: the ack comes at the instant the log makes it durable, not at
// some later call into the pipeline.
func TestPipelineAcksALoneCommitWhenDurable(t *testing.T) {
	env := sim.NewEnv(1)
	log := NewLog(env, &countingSink{delay: 20 * time.Microsecond}, Config{GroupBytes: 1 << 20, GroupTimeout: 100 * time.Microsecond})
	pl, acks := newAckedPipeline(log)
	var made time.Duration
	env.Go("worker", func(p *sim.Proc) {
		p.Sleep(5 * time.Microsecond)
		lsn := log.Append(Record{TxID: 1, Payload: make([]byte, 64)})
		pl.Submit(lsn, p.Now())
		log.WaitDurable(p, lsn)
		made = p.Now()
	})
	env.RunUntil(time.Second)
	want := []pipeAck{{5 * time.Microsecond, made}}
	if made != 125*time.Microsecond || len(*acks) != 1 || (*acks)[0] != want[0] {
		t.Fatalf("acks %v, want %v (durable at %v)", *acks, want, made)
	}
}

// TestPipelineStartIsTheSubmitInstant runs at one commit in flight: the
// second commit's WaitInflight blocks until the first is acknowledged,
// and its latency still counts from the instant it was submitted.
func TestPipelineStartIsTheSubmitInstant(t *testing.T) {
	env := sim.NewEnv(1)
	log := NewLog(env, &countingSink{delay: 20 * time.Microsecond}, Config{GroupBytes: 1 << 20, GroupTimeout: 100 * time.Microsecond})
	pl, acks := newAckedPipeline(log)
	var unblocked time.Duration
	env.Go("worker", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			lsn := log.Append(Record{TxID: int64(i), Payload: make([]byte, 64)})
			submit := p.Now()
			pl.WaitInflight(p, 1)
			unblocked = p.Now()
			pl.Submit(lsn, submit)
			p.Sleep(10 * time.Microsecond)
		}
	})
	env.RunUntil(time.Second)
	// Both records ride the group the timer closes at 100µs, durable at
	// 120µs; the second WaitInflight returns at the first ack.
	want := []pipeAck{{0, 120 * time.Microsecond}, {10 * time.Microsecond, 120 * time.Microsecond}}
	if len(*acks) != 2 || (*acks)[0] != want[0] || (*acks)[1] != want[1] {
		t.Fatalf("acks %v, want %v", *acks, want)
	}
	if unblocked != 120*time.Microsecond {
		t.Fatalf("second WaitInflight returned at %v, want 120µs", unblocked)
	}
}

// TestPipelineBoundsInflightAtDepth submits 40 commits at four in
// flight: after every Submit at most four are unacknowledged, and the
// acks come in submission (LSN) order, each at or after its start.
func TestPipelineBoundsInflightAtDepth(t *testing.T) {
	env := sim.NewEnv(1)
	log := NewLog(env, &countingSink{delay: 50 * time.Microsecond}, Config{GroupBytes: 256, GroupTimeout: 100 * time.Microsecond})
	pl, acks := newAckedPipeline(log)
	const n, depth = 40, 4
	var maxInflight int
	env.Go("worker", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			lsn := log.Append(Record{TxID: int64(i), Payload: make([]byte, 64)})
			submit := p.Now()
			pl.WaitInflight(p, depth)
			pl.Submit(lsn, submit)
			maxInflight = max(maxInflight, i+1-len(*acks))
			p.Sleep(time.Microsecond)
		}
	})
	env.RunUntil(time.Second)
	if maxInflight != depth {
		t.Errorf("at most %d commits in flight, want %d", maxInflight, depth)
	}
	if len(*acks) != n {
		t.Fatalf("%d acks, want %d", len(*acks), n)
	}
	for i, a := range *acks {
		if a.durable < a.start {
			t.Errorf("ack %d durable at %v before its start %v", i, a.durable, a.start)
		}
		if i > 0 && (a.start <= (*acks)[i-1].start || a.durable < (*acks)[i-1].durable) {
			t.Errorf("ack %d %v out of order after %v", i, a, (*acks)[i-1])
		}
	}
}
