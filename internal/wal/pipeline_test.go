package wal

import (
	"testing"
	"time"

	"xssd/internal/obs"
	"xssd/internal/sim"
)

func TestPipelineBoundsInflightAtDepth(t *testing.T) {
	env := sim.NewEnv(1)
	sink := &countingSink{delay: 50 * time.Microsecond}
	log := NewLog(env, sink, Config{GroupBytes: 1 << 20, GroupTimeout: 100 * time.Microsecond})
	pl := NewPipeline(log, 4, obs.Scope{})
	var maxInflight int
	env.Go("worker", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			lsn := log.Append(Record{TxID: int64(i), Payload: make([]byte, 64)})
			pl.Submit(p, lsn)
			if pl.Inflight() > maxInflight {
				maxInflight = pl.Inflight()
			}
		}
		log.WaitDurable(p, log.AppendedLSN())
		pl.Submit(p, 0) // retires what the wait made durable
	})
	env.RunUntil(time.Second)
	if maxInflight > 4 {
		t.Errorf("pipeline held %d tokens in flight, depth is 4", maxInflight)
	}
	if pl.Inflight() != 0 || pl.Retired() != 20 {
		t.Fatalf("after drain: %d in flight, %d retired, want 0/20", pl.Inflight(), pl.Retired())
	}
}

func TestPipelineSubmitIgnoresReadOnlyLSN(t *testing.T) {
	env := sim.NewEnv(1)
	sink := &countingSink{delay: time.Microsecond}
	log := NewLog(env, sink, Config{GroupBytes: 1, GroupTimeout: time.Microsecond})
	pl := NewPipeline(log, 2, obs.Scope{})
	env.Go("worker", func(p *sim.Proc) {
		pl.Submit(p, 0)  // read-only commit: no WAL record
		pl.Submit(p, -1) // aborted: no WAL record
	})
	env.RunUntil(time.Millisecond)
	if pl.Inflight() != 0 || pl.Retired() != 0 {
		t.Fatalf("read-only submissions entered the pipeline: %d in flight, %d retired",
			pl.Inflight(), pl.Retired())
	}
}

func TestPipelineLatencyHistogramCountsRetirements(t *testing.T) {
	env := sim.NewEnv(1)
	sink := &countingSink{delay: 20 * time.Microsecond}
	log := NewLog(env, sink, Config{GroupBytes: 1 << 20, GroupTimeout: 50 * time.Microsecond})
	sc := obs.For(env).Scope("test/pipe")
	pl := NewPipeline(log, 8, sc)
	env.Go("worker", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			pl.Submit(p, log.Append(Record{TxID: int64(i), Payload: make([]byte, 32)}))
		}
		log.WaitDurable(p, log.AppendedLSN())
		pl.Submit(p, 0) // retires what the wait made durable
	})
	env.RunUntil(time.Second)
	s := pl.Latency().Summary()
	if s.N != 10 {
		t.Fatalf("latency histogram holds %d observations, want 10", s.N)
	}
	// Most commits wait a group flush (Min can be 0: a token whose LSN
	// rode an earlier flush while its Submit was blocked retires
	// instantly); the ordering invariants always hold.
	if s.Min < 0 || s.Max < s.Min || s.P50 < s.Min || s.Max <= 0 {
		t.Fatalf("implausible summary %+v", s)
	}
}

func TestPipelineDepthMinimumOne(t *testing.T) {
	env := sim.NewEnv(1)
	log := NewLog(env, &countingSink{}, Config{GroupBytes: 1, GroupTimeout: time.Microsecond})
	if pl := NewPipeline(log, 0, obs.Scope{}); pl.Depth() != 1 {
		t.Fatalf("depth 0 clamps to %d, want 1", pl.Depth())
	}
}
