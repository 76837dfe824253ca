package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestShortLivedProcsReuseCarriers is the recycling contract: processes
// that start, run and finish one batch after another are all served by as
// many coroutines as ever ran at once, and a steady-state Go allocates the
// Proc and nothing else.
func TestShortLivedProcsReuseCarriers(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	defer env.Close()
	const peak, cycles = 3, 10000
	ran := 0
	short := func(p *Proc) {
		p.Sleep(time.Nanosecond)
		ran++
	}
	for i := 0; i < cycles; i++ {
		for j := 0; j < peak; j++ {
			env.Go("short", short)
		}
		if blocked := env.Run(); blocked != 0 {
			t.Fatalf("cycle %d: %d processes blocked", i, blocked)
		}
	}
	if ran != peak*cycles {
		t.Fatalf("ran %d processes, want %d", ran, peak*cycles)
	}
	if len(env.carriers) != peak || len(env.idle) != peak {
		t.Fatalf("%d carriers (%d idle) after %d processes, want %d, all idle",
			len(env.carriers), len(env.idle), ran, peak)
	}
	if g := runtime.NumGoroutine(); g > before+peak {
		t.Fatalf("goroutines %d -> %d, want at most %d more (the peak concurrency)", before, g, peak)
	}
	allocs := testing.AllocsPerRun(200, func() {
		env.Go("short", short)
		env.Run()
	})
	if allocs > 2 {
		t.Fatalf("steady-state Go+run+finish allocates %.1f objects, want <= 2", allocs)
	}
}

// TestYieldZeroAlloc pins the process switch itself: resuming a parked
// process and taking its next yield allocates nothing.
func TestYieldZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	env.Go("yielder", func(p *Proc) {
		for {
			p.Sleep(time.Nanosecond)
		}
	})
	env.RunFor(time.Microsecond)
	allocs := testing.AllocsPerRun(200, func() { env.RunFor(16 * time.Nanosecond) })
	if allocs != 0 {
		t.Fatalf("16 resume/yield pairs allocate %.1f objects, want 0", allocs)
	}
}

// TestCloseEveryCarrierState closes an Env holding a carrier in each state
// Close must handle — parked in Sleep, parked in Wait, idle, recycled but
// not yet dispatched, and fresh with its coroutine never started — and
// requires every goroutine back, the parked processes unwound through their
// deferred functions, and the undispatched ones never run.
func TestCloseEveryCarrierState(t *testing.T) {
	base := runtime.NumGoroutine()
	env := NewEnv(1)
	sig := env.NewSignal()
	var unwound []string
	env.Go("done-1", func(p *Proc) {})
	env.Go("done-2", func(p *Proc) {})
	env.Go("sleeper", func(p *Proc) {
		defer func() { unwound = append(unwound, p.name) }()
		p.Sleep(time.Second)
	})
	env.Go("waiter", func(p *Proc) {
		defer func() { unwound = append(unwound, p.name) }()
		p.Wait(sig)
	})
	env.RunUntil(time.Microsecond)
	if len(env.carriers) != 4 || len(env.idle) != 2 {
		t.Fatalf("%d carriers, %d idle; want 4 and 2", len(env.carriers), len(env.idle))
	}
	undispatchedRan := false
	env.Go("recycled-undispatched", func(p *Proc) { undispatchedRan = true })
	idle := env.idle
	env.idle = nil // an empty stack makes Go start a carrier of its own
	env.Go("fresh-undispatched", func(p *Proc) { undispatchedRan = true })
	env.idle = idle
	if len(env.carriers) != 5 || len(env.idle) != 1 {
		t.Fatalf("%d carriers, %d idle before Close; want 5 and 1", len(env.carriers), len(env.idle))
	}

	env.Close()
	waitGoroutines(t, base)
	if len(unwound) != 2 || unwound[0] != "sleeper" || unwound[1] != "waiter" {
		t.Errorf("deferred functions run by Close: %v, want [sleeper waiter]", unwound)
	}
	if undispatchedRan {
		t.Error("a process that was never dispatched ran during Close")
	}
}

// bombOnRecycledCarrier makes a process that runs on a carrier another
// process already used panic at 2µs.
func bombOnRecycledCarrier(t *testing.T, e *Env) {
	e.Go("first", func(p *Proc) {})
	e.Go("spawner", func(p *Proc) {
		p.Sleep(time.Microsecond)
		e.Go("bomber", func(p *Proc) {
			p.Sleep(time.Microsecond)
			if len(e.carriers) != 2 {
				t.Errorf("%s: bomber got a carrier of its own (%d carriers)", e.name, len(e.carriers))
			}
			panic("boom")
		})
		p.Sleep(time.Second)
	})
}

// wantProcPanic runs f and requires it to panic with the bomber's
// *ProcPanic from member env.
func wantProcPanic(t *testing.T, env string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		pp, ok := recover().(*ProcPanic)
		if !ok || pp.Env != env || pp.Proc != "bomber" || pp.Value != "boom" {
			t.Fatalf("want *ProcPanic %s/bomber: boom, got %#v", env, pp)
		}
	}()
	f()
}

// TestPanicOnRecycledCarrier checks that the per-process recover lives on
// the carrier, not on the coroutine's first process: a panic in a later
// tenant still surfaces as a *ProcPanic naming that process, from Run and
// from Group.RunUntil alike, with the lowest-index failing member chosen at
// any worker count, and the carriers still close cleanly afterwards.
func TestPanicOnRecycledCarrier(t *testing.T) {
	t.Run("env", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := NewEnv(1)
		bombOnRecycledCarrier(t, e)
		wantProcPanic(t, "", func() { e.Run() })
		e.Close()
		waitGoroutines(t, base)
	})
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("group/workers=%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			g := NewGroup(GroupConfig{Workers: workers})
			quiet := g.NewEnv("m0", 0)
			quiet.Go("sleeper", func(p *Proc) {
				for {
					p.Sleep(100 * time.Nanosecond)
				}
			})
			// Both fail in the same quantum; m1 must be the one reported.
			bombOnRecycledCarrier(t, g.NewEnv("m1", 1))
			bombOnRecycledCarrier(t, g.NewEnv("m2", 2))
			wantProcPanic(t, "m1", func() { g.RunUntil(time.Millisecond) })
			g.Close()
			waitGoroutines(t, base)
		})
	}
}
