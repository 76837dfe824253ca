package nvme

import (
	"testing"
	"time"

	"xssd/internal/sim"
)

func TestDriverMatchesCompletionToCaller(t *testing.T) {
	env := sim.NewEnv(1)
	qs := NewQueueSet(env, 1, 0)
	echoSet(env, qs, 10*time.Microsecond)
	drv := NewDriver(env, qs)
	var got Completion
	env.Go("host", func(p *sim.Proc) {
		got = drv.Submit(p, Command{Opcode: OpXSetDestagePolicy, CDW: 21})
	})
	env.RunUntil(time.Millisecond)
	if got.Status != StatusSuccess || got.Value != 42 {
		t.Fatalf("completion = %+v", got)
	}
}

func TestDriverConcurrentSubmitters(t *testing.T) {
	env := sim.NewEnv(1)
	qs := NewQueueSet(env, 1, 0)
	echoSet(env, qs, 5*time.Microsecond)
	drv := NewDriver(env, qs)
	results := map[int]int64{}
	for i := 0; i < 10; i++ {
		i := i
		env.Go("host", func(p *sim.Proc) {
			c := drv.Submit(p, Command{Opcode: OpRead, CDW: int64(i)})
			results[i] = c.Value
		})
	}
	env.RunUntil(time.Millisecond)
	if len(results) != 10 {
		t.Fatalf("completions = %d", len(results))
	}
	for i, v := range results {
		if v != int64(i*2) {
			t.Fatalf("caller %d got value %d (cross-matched completion)", i, v)
		}
	}
}

func TestDriverSubmitAssignsUniqueIDs(t *testing.T) {
	env := sim.NewEnv(1)
	qs := NewQueueSet(env, 1, 0)
	qp := qs.Pair(0)
	seen := map[uint16]bool{}
	env.Go("device", func(p *sim.Proc) {
		for len(seen) < 5 {
			cmd, ok := qp.SQ.Pop()
			if !ok {
				p.Wait(qp.SQ.Doorbell)
				continue
			}
			if seen[cmd.ID] {
				t.Errorf("duplicate command id %d", cmd.ID)
			}
			seen[cmd.ID] = true
			qp.CQ.Post(Completion{ID: cmd.ID})
		}
	})
	drv := NewDriver(env, qs)
	env.Go("host", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			drv.Submit(p, Command{Opcode: OpFlush})
		}
	})
	env.RunUntil(time.Millisecond)
	if len(seen) != 5 {
		t.Fatalf("device saw %d commands", len(seen))
	}
}

func TestQueueDoorbellWakesConsumer(t *testing.T) {
	env := sim.NewEnv(1)
	sq := NewQueueSet(env, 1, 0).Pair(0).SQ
	var wokeAt time.Duration
	env.Go("consumer", func(p *sim.Proc) {
		p.Wait(sq.Doorbell)
		wokeAt = p.Now()
	})
	env.Go("producer", func(p *sim.Proc) {
		p.Sleep(7 * time.Microsecond)
		sq.Push(Command{ID: 1})
	})
	env.RunUntil(time.Millisecond)
	if wokeAt != 7*time.Microsecond {
		t.Fatalf("consumer woke at %v", wokeAt)
	}
}

func TestVendorOpcodeRange(t *testing.T) {
	for _, op := range []Opcode{OpXSetTransportMode, OpXSetDestagePolicy, OpXAlloc, OpXFree} {
		if op < 0xC0 {
			t.Fatalf("vendor opcode 0x%X below vendor-specific range", op)
		}
	}
	for _, op := range []Opcode{OpFlush, OpWrite, OpRead} {
		if op >= 0xC0 {
			t.Fatalf("standard opcode 0x%X in vendor range", op)
		}
	}
}

// echoSet starts one minimal device per pair in the set, each popping
// from its own SQ and posting completions onto its own CQ after a fixed
// delay.
func echoSet(env *sim.Env, qs *QueueSet, delay time.Duration) {
	for i := 0; i < qs.Len(); i++ {
		qp := qs.Pair(i)
		env.Go("echo-device", func(p *sim.Proc) {
			for {
				cmd, ok := qp.SQ.Pop()
				if !ok {
					p.Wait(qp.SQ.Doorbell)
					continue
				}
				p.Sleep(delay)
				qp.CQ.Post(Completion{ID: cmd.ID, Status: StatusSuccess, Value: cmd.CDW * 2})
			}
		})
	}
}

func TestQueueSetSharedArmedLine(t *testing.T) {
	env := sim.NewEnv(1)
	qs := NewQueueSet(env, 3, 0)
	var wakes int
	env.Go("fetcher", func(p *sim.Proc) {
		for {
			p.Wait(qs.Armed())
			wakes++
		}
	})
	env.Go("producers", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Microsecond)
			qs.Pair(i).SQ.Push(Command{Opcode: OpFlush})
		}
	})
	env.RunUntil(time.Millisecond)
	if wakes != 3 {
		t.Fatalf("armed line woke the fetcher %d times, want 3 (one per SQ push)", wakes)
	}
}

func TestCoalescingFiresAtOpsThreshold(t *testing.T) {
	env := sim.NewEnv(1)
	cq := NewCompletionQueue(env)
	cq.SetCoalesce(4)
	var interrupts []time.Duration
	env.Go("isr", func(p *sim.Proc) {
		for {
			p.Wait(cq.Interrupt)
			interrupts = append(interrupts, p.Now())
		}
	})
	env.Go("device", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(time.Microsecond)
			cq.Post(Completion{ID: uint16(i)})
		}
	})
	env.RunUntil(100 * time.Microsecond) // the bound's timer finds nothing pending
	if len(interrupts) != 1 || interrupts[0] != 4*time.Microsecond {
		t.Fatalf("interrupts at %v, want exactly one at the 4th post (4µs)", interrupts)
	}
}

func TestCoalescingTimerFiresFinalSubBatch(t *testing.T) {
	env := sim.NewEnv(1)
	cq := NewCompletionQueue(env)
	cq.SetCoalesce(8)
	var interrupts []time.Duration
	env.Go("isr", func(p *sim.Proc) {
		for {
			p.Wait(cq.Interrupt)
			interrupts = append(interrupts, p.Now())
		}
	})
	env.Go("device", func(p *sim.Proc) {
		p.Sleep(5 * time.Microsecond)
		cq.Post(Completion{ID: 1}) // 2 of 8: only the timer can fire
		cq.Post(Completion{ID: 2})
	})
	env.RunUntil(time.Millisecond)
	if want := 5*time.Microsecond + coalesceWait; len(interrupts) != 1 || interrupts[0] != want {
		t.Fatalf("interrupts at %v, want exactly one %v after the first post (%v)", interrupts, coalesceWait, want)
	}
}

func TestCompletionSeqMonotone(t *testing.T) {
	env := sim.NewEnv(1)
	cq := NewCompletionQueue(env)
	for i := 0; i < 5; i++ {
		cq.Post(Completion{ID: uint16(i)})
	}
	for want := uint64(1); ; want++ {
		c, ok := cq.Pop()
		if !ok {
			if want != 6 {
				t.Fatalf("drained %d completions, want 5", want-1)
			}
			break
		}
		if c.Seq != want {
			t.Fatalf("completion %d stamped seq %d, want %d", c.ID, c.Seq, want)
		}
	}
	if cq.Seq() != 5 {
		t.Fatalf("queue seq = %d, want 5", cq.Seq())
	}
}

func TestMultiDriverPerQueueIsolation(t *testing.T) {
	env := sim.NewEnv(1)
	qs := NewQueueSet(env, 2, 0)
	echoSet(env, qs, 5*time.Microsecond)
	drv := NewDriver(env, qs)
	env.Go("host", func(p *sim.Proc) {
		t0 := drv.SubmitAsync(0, Command{Opcode: OpRead, CDW: 10})
		t1 := drv.SubmitAsync(1, Command{Opcode: OpRead, CDW: 20})
		if c := drv.Wait(p, t1); c.Value != 40 {
			t.Errorf("queue 1 completion value %d, want 40", c.Value)
		}
		if c := drv.Wait(p, t0); c.Value != 20 {
			t.Errorf("queue 0 completion value %d, want 20", c.Value)
		}
	})
	env.RunUntil(time.Millisecond)
	for q := 0; q < 2; q++ {
		if drv.Submitted(q) != 1 || drv.Completed(q) != 1 || drv.LastSeq(q) != 1 {
			t.Fatalf("queue %d counters: submitted %d completed %d lastSeq %d, want 1/1/1",
				q, drv.Submitted(q), drv.Completed(q), drv.LastSeq(q))
		}
	}
}
