package sched

import (
	"testing"
	"time"

	"xssd/internal/nand"
	"xssd/internal/sim"
)

func testGeo() nand.Geometry {
	return nand.Geometry{Channels: 4, WaysPerChan: 4, BlocksPerDie: 128, PagesPerBlock: 64, PageSize: 4096}
}

// alloc hands out physical pages die by die, respecting NAND page order.
type alloc struct {
	geo  nand.Geometry
	next []nand.PageAddr // per-die write point
	die  int
}

func newAlloc(geo nand.Geometry) *alloc {
	a := &alloc{geo: geo, next: make([]nand.PageAddr, geo.Dies())}
	for ch := 0; ch < geo.Channels; ch++ {
		for w := 0; w < geo.WaysPerChan; w++ {
			a.next[ch*geo.WaysPerChan+w] = nand.PageAddr{Channel: ch, Way: w}
		}
	}
	return a
}

func (a *alloc) page() nand.PageAddr {
	d := a.die
	a.die = (a.die + 1) % len(a.next)
	addr := a.next[d]
	n := &a.next[d]
	n.Page++
	if n.Page == a.geo.PagesPerBlock {
		n.Page = 0
		n.Block++
	}
	return addr
}

// offer generates page programs at a fixed fraction of the array's program
// bandwidth and counts completed bytes.
func offer(env *sim.Env, s *Scheduler, al *alloc, src Source, frac float64, done, errs *int64) {
	geo := s.array.Geometry()
	rate := frac * geo.ProgramBandwidth(s.array.Timing())
	interval := time.Duration(float64(geo.PageSize) / rate * 1e9)
	payload := make([]byte, geo.PageSize)
	env.Go("offer", func(p *sim.Proc) {
		for {
			s.Submit(&Request{
				Kind:   OpProgram,
				Addr:   al.page(),
				Data:   payload,
				Source: src,
				Done: func(_ []byte, err error) {
					if err != nil {
						*errs++
						return
					}
					*done += int64(geo.PageSize)
				},
			})
			p.Sleep(interval)
		}
	})
}

func measured(done int64, window time.Duration, geo nand.Geometry, timing nand.Timing) float64 {
	return float64(done) / window.Seconds() / geo.ProgramBandwidth(timing)
}

func TestProgramsCompleteAndDataLands(t *testing.T) {
	env := sim.NewEnv(1)
	geo := testGeo()
	arr := nand.New(env, geo, nand.DefaultTiming)
	s := New(env, arr, Neutral)
	al := newAlloc(geo)
	completed := 0
	var addrs []nand.PageAddr
	env.Go("submit", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			addr := al.page()
			addrs = append(addrs, addr)
			data := make([]byte, geo.PageSize)
			data[0] = byte(i)
			s.Submit(&Request{Kind: OpProgram, Addr: addr, Data: data, Source: Conventional,
				Done: func(_ []byte, err error) {
					if err != nil {
						t.Errorf("program failed: %v", err)
					}
					completed++
				}})
		}
	})
	env.RunUntil(time.Second)
	if completed != 20 {
		t.Fatalf("completed = %d, want 20", completed)
	}
	for i, addr := range addrs {
		d, ok := arr.PeekPage(addr)
		if !ok || d[0] != byte(i) {
			t.Fatalf("page %v content wrong", addr)
		}
	}
	if s.OpsBySource(Conventional) != 20 {
		t.Fatalf("ops = %d", s.OpsBySource(Conventional))
	}
}

func TestReadAndEraseThroughScheduler(t *testing.T) {
	env := sim.NewEnv(1)
	geo := testGeo()
	arr := nand.New(env, geo, nand.DefaultTiming)
	s := New(env, arr, Neutral)
	addr := nand.PageAddr{Channel: 0, Way: 0, Block: 0, Page: 0}
	want := make([]byte, geo.PageSize)
	want[5] = 42
	var readBack []byte
	erased := false
	env.Go("seq", func(p *sim.Proc) {
		sig := env.NewSignal()
		step := 0
		s.Submit(&Request{Kind: OpProgram, Addr: addr, Data: want, Source: Conventional,
			Done: func(_ []byte, err error) { step = 1; sig.Broadcast() }})
		p.WaitFor(sig, func() bool { return step == 1 })
		s.Submit(&Request{Kind: OpRead, Addr: addr, Data: make([]byte, geo.PageSize), Source: Conventional,
			Done: func(d []byte, err error) {
				if err != nil {
					t.Errorf("read: %v", err)
				}
				readBack = d
				step = 2
				sig.Broadcast()
			}})
		p.WaitFor(sig, func() bool { return step == 2 })
		s.Submit(&Request{Kind: OpErase, Addr: addr, Source: GC,
			Done: func(_ []byte, err error) {
				if err != nil {
					t.Errorf("erase: %v", err)
				}
				erased = true
			}})
	})
	env.RunUntil(time.Second)
	if readBack == nil || readBack[5] != 42 {
		t.Fatal("read back wrong data")
	}
	if !erased {
		t.Fatal("erase never completed")
	}
}

func TestConventionalPriorityProtectsConventional(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short mode")
	}
	env := sim.NewEnv(7)
	geo := testGeo()
	arr := nand.New(env, geo, nand.DefaultTiming)
	s := New(env, arr, ConventionalPriority)
	var convDone, destDone, errs int64
	offer(env, s, newAlloc(geo), Conventional, 0.5, &convDone, &errs)
	al2 := newAlloc(geo)
	// separate block range for the destage stream so allocations don't clash
	for i := range al2.next {
		al2.next[i].Block = geo.BlocksPerDie / 2
	}
	offer(env, s, al2, Destage, 0.6, &destDone, &errs)
	window := 2 * time.Second
	env.RunUntil(window)
	if errs != 0 {
		t.Fatalf("%d program errors", errs)
	}
	conv := measured(convDone, window, geo, nand.DefaultTiming)
	dest := measured(destDone, window, geo, nand.DefaultTiming)
	if conv < 0.45 {
		t.Fatalf("conventional achieved %.2f of bandwidth, want ~0.50 (protected)", conv)
	}
	if dest > 0.55 {
		t.Fatalf("destage achieved %.2f, should be squeezed below its 0.60 offer", dest)
	}
	if total := conv + dest; total > 1.05 {
		t.Fatalf("total %.2f exceeds device bandwidth", total)
	}
}

func TestNeutralOversubscriptionHurtsBoth(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short mode")
	}
	env := sim.NewEnv(7)
	geo := testGeo()
	arr := nand.New(env, geo, nand.DefaultTiming)
	s := New(env, arr, Neutral)
	var convDone, destDone, errs int64
	offer(env, s, newAlloc(geo), Conventional, 0.5, &convDone, &errs)
	al2 := newAlloc(geo)
	for i := range al2.next {
		al2.next[i].Block = geo.BlocksPerDie / 2
	}
	offer(env, s, al2, Destage, 0.6, &destDone, &errs)
	window := 2 * time.Second
	env.RunUntil(window)
	if errs != 0 {
		t.Fatalf("%d program errors", errs)
	}
	conv := measured(convDone, window, geo, nand.DefaultTiming)
	dest := measured(destDone, window, geo, nand.DefaultTiming)
	// Offered 1.1x of capacity: under neutral sharing both streams lose
	// some throughput relative to their offers.
	if conv > 0.49 {
		t.Fatalf("neutral: conventional %.2f, expected interference below its 0.50 offer", conv)
	}
	if dest > 0.59 {
		t.Fatalf("neutral: destage %.2f, expected interference below its 0.60 offer", dest)
	}
}

func TestDestagePriorityProtectsDestage(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short mode")
	}
	env := sim.NewEnv(7)
	geo := testGeo()
	arr := nand.New(env, geo, nand.DefaultTiming)
	s := New(env, arr, DestagePriority)
	var convDone, destDone, errs int64
	offer(env, s, newAlloc(geo), Conventional, 0.6, &convDone, &errs)
	al2 := newAlloc(geo)
	for i := range al2.next {
		al2.next[i].Block = geo.BlocksPerDie / 2
	}
	offer(env, s, al2, Destage, 0.5, &destDone, &errs)
	window := 2 * time.Second
	env.RunUntil(window)
	if errs != 0 {
		t.Fatalf("%d program errors", errs)
	}
	dest := measured(destDone, window, geo, nand.DefaultTiming)
	if dest < 0.45 {
		t.Fatalf("destage achieved %.2f under destage priority, want ~0.50", dest)
	}
}

func TestGCBeatsOtherClasses(t *testing.T) {
	env := sim.NewEnv(1)
	geo := testGeo()
	arr := nand.New(env, geo, nand.DefaultTiming)
	s := New(env, arr, ConventionalPriority)
	var order []Source
	env.Go("submit", func(p *sim.Proc) {
		// Occupy die (0,0) so everything queues behind one program.
		busy := &Request{Kind: OpProgram, Addr: nand.PageAddr{Channel: 0, Way: 0, Block: 0, Page: 0},
			Data: make([]byte, geo.PageSize), Source: Conventional,
			Done: func(_ []byte, _ error) { order = append(order, Conventional) }}
		s.Submit(busy)
		p.Sleep(time.Microsecond)
		mk := func(src Source, block int) *Request {
			return &Request{Kind: OpProgram, Addr: nand.PageAddr{Channel: 0, Way: 0, Block: block, Page: 0},
				Data: make([]byte, geo.PageSize), Source: src,
				Done: func(_ []byte, err error) {
					if err != nil {
						t.Errorf("%v program: %v", src, err)
					}
					order = append(order, src)
				}}
		}
		s.Submit(mk(Destage, 1)) // queued first
		s.Submit(mk(GC, 2))      // queued later but must dispatch first
	})
	env.RunUntil(time.Second)
	// order[0] is the initial program; then GC must come before Destage.
	if len(order) != 3 {
		t.Fatalf("completions = %d, want 3 (order=%v)", len(order), order)
	}
	if order[1] != GC {
		t.Fatalf("dispatch order = %v, want GC before destage", order)
	}
}

func TestSetPolicy(t *testing.T) {
	env := sim.NewEnv(1)
	arr := nand.New(env, testGeo(), nand.DefaultTiming)
	s := New(env, arr, Neutral)
	if s.Policy() != Neutral {
		t.Fatal("initial policy wrong")
	}
	s.SetPolicy(DestagePriority)
	if s.Policy() != DestagePriority {
		t.Fatal("SetPolicy did not take effect")
	}
}

func TestPolicyAndSourceStrings(t *testing.T) {
	if Neutral.String() != "neutral" || ConventionalPriority.String() != "conventional-priority" {
		t.Fatal("policy strings")
	}
	if Conventional.String() != "conventional" || Destage.String() != "destage" || GC.String() != "gc" {
		t.Fatal("source strings")
	}
}
