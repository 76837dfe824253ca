package ftl

import (
	"testing"

	"xssd/internal/nand"
	"xssd/internal/sched"
	"xssd/internal/sim"
)

// budgetGeo has dies big enough that the collector goes idle between
// rounds, so a round's env.Run returns (tinyGeo's 8-block dies can keep it
// busy without end), and that the bounded-list test's writers all fit.
var budgetGeo = nand.Geometry{Channels: 2, WaysPerChan: 2, BlocksPerDie: 32, PagesPerBlock: 8, PageSize: 256}

func budgetSetup() (*sim.Env, *nand.Array, *FTL) {
	env := sim.NewEnv(1)
	arr := nand.New(env, budgetGeo, fastTiming)
	f := New(env, arr, sched.New(env, arr, sched.Neutral), DefaultConfig)
	return env, arr, f
}

// resident runs one FTL call per round on a process that lives across
// rounds, so what a round allocates is the call's own: the kick, the wake-up
// and the run loop allocate nothing.
type resident struct {
	env  *sim.Env
	kick *sim.Signal
}

func newResident(env *sim.Env, call func(p *sim.Proc)) *resident {
	r := &resident{env: env, kick: env.NewSignal()}
	env.Go("resident", func(p *sim.Proc) {
		for {
			p.Wait(r.kick)
			call(p)
		}
	})
	env.Run()
	return r
}

// round runs one call, and everything it sets off, to completion.
func (r *resident) round() {
	r.kick.Broadcast()
	r.env.Run()
}

// rewriter cycles writes over one block's worth of logical pages, so every
// block it fills is wholly stale by the time the collector picks it: GC
// erases and never migrates, and the array recycles the erased pages.
func rewriter(t testing.TB, f *FTL) func(p *sim.Proc) {
	data := make([]byte, f.PageSize())
	lpn := int64(0)
	return func(p *sim.Proc) {
		if err := f.Write(p, lpn%int64(budgetGeo.PagesPerBlock), data, sched.Conventional); err != nil {
			t.Fatalf("write %d: %v", lpn, err)
		}
		lpn++
	}
}

// TestFTLOpAllocations pins the op-record rule: a steady-state Write
// allocates nothing, and neither does a ReadInto, which fills the caller's
// page.
func TestFTLOpAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own schedule")
	}
	env, arr, f := budgetSetup()
	defer env.Close()
	w := newResident(env, rewriter(t, f))
	for i := 0; i < 20*budgetGeo.TotalPages(); i++ { // warm-up: page buffers and free lists grow here
		w.round()
	}
	erases0 := f.Stats().GCErases
	if got := testing.AllocsPerRun(500, w.round); got != 0 {
		t.Errorf("Write allocates %v objects, want 0", got)
	}
	if f.Stats().GCErases == erases0 || f.Stats().GCPages != 0 {
		t.Fatalf("measured writes ran %d erases and %d migrations, want erases and no migration",
			f.Stats().GCErases-erases0, f.Stats().GCPages)
	}

	page := make([]byte, f.PageSize())
	r := newResident(env, func(p *sim.Proc) {
		page[0] = 0xFF
		if err := f.ReadInto(p, 3, page); err != nil {
			t.Fatalf("read: %v", err)
		}
	})
	r.round()
	reads, _, _ := arr.Stats()
	if n := testing.AllocsPerRun(500, r.round); n != 0 {
		t.Errorf("ReadInto allocates %v objects, want 0", n)
	}
	if now, _, _ := arr.Stats(); now-reads != 501 || page[0] != 0 {
		t.Fatalf("measured rounds issued %d flash reads, and the page's first byte reads %#x, want the stored 0", now-reads, page[0])
	}
}

// TestFTLFreshBlockAllocations: the writes that open the array's last
// never-programmed blocks, with the collector erasing beside them,
// allocate nothing. The page table has a 4-byte entry for every page from
// the start, and a first program takes a buffer an erase returned.
func TestFTLFreshBlockAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own schedule")
	}
	env, _, f := budgetSetup()
	defer env.Close()
	w := newResident(env, rewriter(t, f))
	for f.Stats().GCErases < int64(budgetGeo.Dies()) { // warm-up: the first erases return page buffers
		w.round()
	}
	// Each die's free list hands out blocks oldest first, and the dies
	// take writes in turn: once every die has opened more blocks than it
	// has, every never-programmed block has been opened.
	blocks := budgetGeo.Dies() * budgetGeo.BlocksPerDie
	opened := func() int { return blocks - f.FreeBlocks() + int(f.Stats().GCErases) }
	before := opened()
	if before >= blocks {
		t.Fatalf("warm-up opened %d blocks of %d, leaving none never programmed", before, blocks)
	}
	rounds := (blocks + budgetGeo.Dies() - before + 1) * budgetGeo.PagesPerBlock
	if n := testing.AllocsPerRun(rounds, w.round); n != 0 {
		t.Errorf("writes into never-programmed blocks allocate %v objects, want 0", n)
	}
	if after := opened(); after < blocks+budgetGeo.Dies() {
		t.Fatalf("measured writes opened blocks %d to %d, want past %d", before, after, blocks+budgetGeo.Dies())
	}
}

// TestOpFreeListIsBounded: many writers waiting on flash at once take a
// record each, and the free list keeps at most maxFreeOps of them after.
func TestOpFreeListIsBounded(t *testing.T) {
	env, _, f := budgetSetup()
	defer env.Close()
	data := make([]byte, f.PageSize())
	for i := 0; i < 3*maxFreeOps; i++ {
		lpn := int64(i)
		env.Go("writer", func(p *sim.Proc) {
			if err := f.Write(p, lpn, data, sched.Conventional); err != nil {
				t.Errorf("write %d: %v", lpn, err)
			}
		})
	}
	env.Run()
	n := 0
	for o := f.ops.Get(); o != nil; o = f.ops.Get() {
		if o.req.Data != nil || o.data != nil || o.done {
			t.Fatal("a free record still holds a page or a result")
		}
		n++
	}
	if n != maxFreeOps {
		t.Fatalf("free list holds %d records after %d concurrent writes, want %d", n, 3*maxFreeOps, maxFreeOps)
	}
}

// BenchmarkFTLReadWrite measures one steady-state page write and one read
// of it, flash timing included in virtual time only.
func BenchmarkFTLReadWrite(b *testing.B) {
	env, _, f := budgetSetup()
	defer env.Close()
	write := rewriter(b, f)
	page := make([]byte, f.PageSize())
	w := newResident(env, func(p *sim.Proc) {
		write(p)
		if err := f.ReadInto(p, 0, page); err != nil {
			b.Fatalf("read: %v", err)
		}
	})
	for i := 0; i < 4*budgetGeo.TotalPages(); i++ {
		w.round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.round()
	}
}
