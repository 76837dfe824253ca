package sim

import (
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv(1)
	var woke time.Duration
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		woke = p.Now()
	})
	if blocked := env.Run(); blocked != 0 {
		t.Fatalf("blocked processes after Run: %d", blocked)
	}
	if woke != 10*time.Microsecond {
		t.Fatalf("woke at %v, want 10µs", woke)
	}
	if env.Now() != 10*time.Microsecond {
		t.Fatalf("env.Now() = %v, want 10µs", env.Now())
	}
}

func TestEventOrderingIsFIFOAtSameInstant(t *testing.T) {
	env := NewEnv(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.Go("p", func(p *Proc) {
			p.Sleep(time.Microsecond)
			order = append(order, i)
		})
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		env := NewEnv(42)
		var stamps []time.Duration
		for i := 0; i < 10; i++ {
			env.Go("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(time.Duration(env.Rand().Intn(1000)) * time.Nanosecond)
					stamps = append(stamps, p.Now())
				}
			})
		}
		env.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSignalWakesAllWaiters(t *testing.T) {
	env := NewEnv(1)
	sig := env.NewSignal()
	woken := 0
	for i := 0; i < 3; i++ {
		env.Go("waiter", func(p *Proc) {
			p.Wait(sig)
			woken++
		})
	}
	env.Go("notifier", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		sig.Broadcast()
	})
	if blocked := env.Run(); blocked != 0 {
		t.Fatalf("blocked = %d after broadcast", blocked)
	}
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestRunReportsBlockedProcesses(t *testing.T) {
	env := NewEnv(1)
	sig := env.NewSignal()
	env.Go("stuck", func(p *Proc) { p.Wait(sig) })
	if blocked := env.Run(); blocked != 1 {
		t.Fatalf("blocked = %d, want 1", blocked)
	}
}

func TestWaitForRechecksCondition(t *testing.T) {
	env := NewEnv(1)
	sig := env.NewSignal()
	n := 0
	var done time.Duration
	env.Go("consumer", func(p *Proc) {
		p.WaitFor(sig, func() bool { return n >= 3 })
		done = p.Now()
	})
	env.Go("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Microsecond)
			n++
			sig.Broadcast()
		}
	})
	if blocked := env.Run(); blocked != 0 {
		t.Fatalf("blocked = %d", blocked)
	}
	if done != 3*time.Microsecond {
		t.Fatalf("consumer finished at %v, want 3µs", done)
	}
}

func TestRunUntilStopsAtBoundaryAndResumes(t *testing.T) {
	env := NewEnv(1)
	fired := false
	env.Go("late", func(p *Proc) {
		p.Sleep(time.Second)
		fired = true
	})
	env.RunUntil(time.Millisecond)
	if fired {
		t.Fatal("event past the boundary ran early")
	}
	if env.Now() != time.Millisecond {
		t.Fatalf("Now() = %v, want 1ms", env.Now())
	}
	env.Run()
	if !fired {
		t.Fatal("event did not run after resuming")
	}
	if env.Now() != time.Second {
		t.Fatalf("Now() = %v, want 1s", env.Now())
	}
}

func TestAfterCallback(t *testing.T) {
	env := NewEnv(1)
	var at time.Duration
	env.After(7*time.Microsecond, func() { at = env.Now() })
	env.Run()
	if at != 7*time.Microsecond {
		t.Fatalf("callback at %v, want 7µs", at)
	}
}

func TestLinkSerializesTransfers(t *testing.T) {
	env := NewEnv(1)
	link := env.NewLink("bus", 1e9, 0) // 1 GB/s: 1000 bytes = 1µs
	var ends []time.Duration
	for i := 0; i < 3; i++ {
		env.Go("xfer", func(p *Proc) {
			link.Transfer(p, 1000)
			ends = append(ends, p.Now())
		})
	}
	env.Run()
	want := []time.Duration{1 * time.Microsecond, 2 * time.Microsecond, 3 * time.Microsecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("transfer %d ended at %v, want %v (all: %v)", i, ends[i], want[i], ends)
		}
	}
}

func TestLinkLatencyAddsToCompletion(t *testing.T) {
	env := NewEnv(1)
	link := env.NewLink("wire", 1e9, 500*time.Nanosecond)
	var end time.Duration
	env.Go("xfer", func(p *Proc) {
		link.Transfer(p, 1000)
		end = p.Now()
	})
	env.Run()
	if end != 1500*time.Nanosecond {
		t.Fatalf("end = %v, want 1.5µs", end)
	}
}

func TestLinkLatencyDoesNotOccupyBandwidth(t *testing.T) {
	// Two back-to-back transfers with large latency should pipeline:
	// the second occupies the wire right after the first leaves it.
	env := NewEnv(1)
	link := env.NewLink("wire", 1e9, 10*time.Microsecond)
	var ends []time.Duration
	for i := 0; i < 2; i++ {
		env.Go("xfer", func(p *Proc) {
			link.Transfer(p, 1000)
			ends = append(ends, p.Now())
		})
	}
	env.Run()
	if ends[0] != 11*time.Microsecond || ends[1] != 12*time.Microsecond {
		t.Fatalf("ends = %v, want [11µs 12µs]", ends)
	}
}

func TestLinkStatsAndUtilization(t *testing.T) {
	env := NewEnv(1)
	link := env.NewLink("bus", 1e9, 0)
	env.Go("xfer", func(p *Proc) {
		link.Transfer(p, 1000)
		p.Sleep(time.Microsecond) // idle second half
	})
	env.Run()
	bytes, busy, n := link.Stats()
	if bytes != 1000 || n != 1 {
		t.Fatalf("stats = (%d, %v, %d)", bytes, busy, n)
	}
	if u := link.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestLinkSendCallback(t *testing.T) {
	env := NewEnv(1)
	link := env.NewLink("bus", 1e9, 0)
	var at time.Duration
	env.Go("sender", func(p *Proc) {
		link.Send(2000, func() { at = env.Now() })
	})
	env.Run()
	if at != 2*time.Microsecond {
		t.Fatalf("callback at %v, want 2µs", at)
	}
}

func TestNestedProcessSpawn(t *testing.T) {
	env := NewEnv(1)
	var childDone time.Duration
	env.Go("parent", func(p *Proc) {
		p.Sleep(time.Microsecond)
		env.Go("child", func(c *Proc) {
			c.Sleep(time.Microsecond)
			childDone = c.Now()
		})
		p.Sleep(5 * time.Microsecond)
	})
	env.Run()
	if childDone != 2*time.Microsecond {
		t.Fatalf("child done at %v, want 2µs", childDone)
	}
}

func TestYieldLetsPeersRun(t *testing.T) {
	env := NewEnv(1)
	var order []string
	env.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	env.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	env.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
