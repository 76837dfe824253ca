package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// BenchmarkEnvScheduleFire measures raw timer throughput: schedule a batch
// of future callbacks, dispatch them, repeat. This is the engine's inner
// loop — heap push, pop, fire.
func BenchmarkEnvScheduleFire(b *testing.B) {
	env := NewEnv(1)
	fn := func() {}
	const batch = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for j := 0; j < batch; j++ {
			env.After(time.Duration(j+1)*time.Nanosecond, fn)
		}
		env.Run()
	}
}

// BenchmarkProcYield measures the process handoff: yield to the scheduler,
// dispatch the resume event, switch back — two coroutine switches per
// yield. TestYieldZeroAlloc holds it to 0 allocs.
func BenchmarkProcYield(b *testing.B) {
	env := NewEnv(1)
	env.Go("yielder", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// TestAfterZeroAlloc locks in the de-allocated scheduler: once the event
// heap has grown, scheduling a future callback must not allocate.
func TestAfterZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	fn := func() {}
	// Pre-grow the heap past anything AllocsPerRun will need.
	for i := 0; i < 1024; i++ {
		env.After(time.Duration(i+1)*time.Nanosecond, fn)
	}
	env.Run()
	allocs := testing.AllocsPerRun(200, func() {
		env.After(time.Microsecond, fn)
	})
	env.Run()
	if allocs != 0 {
		t.Fatalf("Env.After allocates %.1f objects per call, want 0", allocs)
	}
}

// TestCloseReleasesParkedProcs is the goroutine-leak regression test: a
// truncated RunUntil leaves processes parked mid-loop; Close must release
// every one of them. Before Close existed, each abandoned Env leaked its
// process goroutines forever.
func TestCloseReleasesParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	for i := 0; i < 8; i++ {
		env.Go("looper", func(p *Proc) {
			for {
				p.Sleep(time.Microsecond)
			}
		})
	}
	env.RunUntil(10 * time.Microsecond) // truncated: all 8 still live
	env.Close()
	// Close has received every process's exit acknowledgement; the
	// goroutines themselves unwind an instant later.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines after Close = %d, want <= %d (leaked parked procs)", g, before)
	}
}

// TestCloseWithDeferredSleep verifies that a process whose deferred
// cleanup itself calls Sleep still unwinds under Close instead of
// deadlocking the release handshake.
func TestCloseWithDeferredSleep(t *testing.T) {
	env := NewEnv(1)
	env.Go("cleanup", func(p *Proc) {
		defer func() {
			recover()
			p.Sleep(time.Microsecond)
		}()
		for {
			p.Sleep(time.Microsecond)
		}
	})
	env.RunUntil(5 * time.Microsecond)
	env.Close() // must return; a hang here fails the test by timeout
}

// BenchmarkGoShortLived measures a whole process lifetime on a recycled
// carrier — Go, first dispatch, one sleep, finish — the shape of the
// per-page destage worker and the per-2PC-message handler.
func BenchmarkGoShortLived(b *testing.B) {
	env := NewEnv(1)
	defer env.Close()
	short := func(p *Proc) { p.Sleep(time.Nanosecond) }
	env.Go("short", short)
	env.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Go("short", short)
		env.Run()
	}
}

// BenchmarkGroupQuantum measures one quantum of the group engine, barrier
// and hand-off included, in ns/op: dense3 is three members of 26 events
// each, all active in every quantum (tpcc_repl's shape); sparse4 is four
// members of which one is active (tpcc_shard4's, mostly). /sw1 is the serial
// runner. The hand-off counters are per quantum.
func BenchmarkGroupQuantum(b *testing.B) {
	for _, wl := range []struct {
		name  string
		build func(*Group)
		span  time.Duration
	}{
		{"dense3", func(g *Group) { denseChains(g, 3) }, denseSpan},
		{"sparse4", func(g *Group) { tokenRing(g, 4) }, tokenSpan},
	} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/sw%d", wl.name, workers), func(b *testing.B) {
				g := NewGroup(GroupConfig{Workers: workers})
				defer g.Close()
				wl.build(g)
				g.RunUntil(100 * wl.span)
				before := g.Stats()
				b.ReportAllocs()
				b.ResetTimer()
				g.RunUntil(g.Now() + time.Duration(b.N)*wl.span)
				b.StopTimer()
				st := g.Stats()
				if n := st.Quanta - before.Quanta; n != int64(b.N) {
					b.Fatalf("crossed %d barriers in %d spans", n, b.N)
				}
				b.ReportMetric(float64(st.Shared-before.Shared)/float64(b.N), "shared/op")
				b.ReportMetric(float64(st.Helped-before.Helped)/float64(b.N), "helped/op")
				b.ReportMetric(float64(st.Wakes-before.Wakes)/float64(b.N), "wakes/op")
			})
		}
	}
}
