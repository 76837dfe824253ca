package nand

import (
	"bytes"
	"testing"
	"time"

	"xssd/internal/sim"
)

func smallGeo() Geometry {
	return Geometry{Channels: 2, WaysPerChan: 2, BlocksPerDie: 4, PagesPerBlock: 8, PageSize: 512}
}

func page(a *Array, fill byte) []byte {
	b := make([]byte, a.Geometry().PageSize)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestGeometryMath(t *testing.T) {
	g := DefaultGeometry
	if g.Dies() != 64 {
		t.Fatalf("dies = %d", g.Dies())
	}
	bw := g.ProgramBandwidth(DefaultTiming)
	if bw < 1.6e9 || bw > 1.9e9 {
		t.Fatalf("program bandwidth = %.2e, want ~1.75 GB/s", bw)
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, smallGeo(), DefaultTiming)
	addr := PageAddr{0, 0, 0, 0}
	want := page(a, 0xAB)
	var got []byte
	env.Go("io", func(p *sim.Proc) {
		done := false
		sig := env.NewSignal()
		a.Program(p, addr, want, func(_ []byte, err error) {
			if err != nil {
				t.Errorf("program: %v", err)
			}
			done = true
			sig.Broadcast()
		})
		p.WaitFor(sig, func() bool { return done })
		a.Read(addr, make([]byte, len(want)), func(d []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			got = d
		})
	})
	env.Run()
	if !bytes.Equal(got, want) {
		t.Fatal("read back wrong data")
	}
}

func TestProgramTiming(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, smallGeo(), DefaultTiming)
	var doneAt time.Duration
	env.Go("io", func(p *sim.Proc) {
		a.Program(p, PageAddr{0, 0, 0, 0}, page(a, 1), func([]byte, error) { doneAt = env.Now() })
	})
	env.Run()
	// bus: 512B at 400MB/s = 1.28µs, then TProg 600µs
	want := time.Duration(float64(512)/400e6*1e9) + DefaultTiming.TProg
	if diff := doneAt - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("program completed at %v, want ~%v", doneAt, want)
	}
}

func TestSequentialPageOrderEnforced(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, smallGeo(), DefaultTiming)
	var errs []error
	env.Go("io", func(p *sim.Proc) {
		a.Program(p, PageAddr{0, 0, 0, 1}, page(a, 1), func(_ []byte, err error) { errs = append(errs, err) })
	})
	env.Run()
	if len(errs) != 1 || errs[0] != ErrPageOrder {
		t.Fatalf("errs = %v, want ErrPageOrder", errs)
	}
}

func TestRewriteWithoutEraseRejected(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, smallGeo(), DefaultTiming)
	var second error
	env.Go("io", func(p *sim.Proc) {
		a.Program(p, PageAddr{0, 0, 0, 0}, page(a, 1), func([]byte, error) {})
		a.Program(p, PageAddr{0, 0, 0, 0}, page(a, 2), func(_ []byte, err error) { second = err })
	})
	env.Run()
	if second != ErrNotErased {
		t.Fatalf("second program err = %v, want ErrNotErased", second)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, smallGeo(), DefaultTiming)
	addr := PageAddr{1, 1, 2, 0}
	env.Go("io", func(p *sim.Proc) {
		ok := false
		sig := env.NewSignal()
		a.Program(p, addr, page(a, 1), func([]byte, error) { ok = true; sig.Broadcast() })
		p.WaitFor(sig, func() bool { return ok })
		ok = false
		a.Erase(addr.BlockAddr(), func(_ []byte, err error) {
			if err != nil {
				t.Errorf("erase: %v", err)
			}
			ok = true
			sig.Broadcast()
		})
		p.WaitFor(sig, func() bool { return ok })
		if _, present := a.PeekPage(addr); present {
			t.Error("page survived erase")
		}
		a.Program(p, addr, page(a, 3), func(_ []byte, err error) {
			if err != nil {
				t.Errorf("program after erase: %v", err)
			}
		})
	})
	env.Run()
	if a.erases != 1 {
		t.Fatalf("erase count = %d", a.erases)
	}
}

func TestBadBlockRejectsOps(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, smallGeo(), DefaultTiming)
	b := BlockAddr{0, 0, 3}
	a.MarkBad(b)
	if !a.IsBad(b) {
		t.Fatal("IsBad = false after MarkBad")
	}
	var progErr, eraseErr error
	env.Go("io", func(p *sim.Proc) {
		a.Program(p, PageAddr{0, 0, 3, 0}, page(a, 1), func(_ []byte, err error) { progErr = err })
		a.Erase(b, func(_ []byte, err error) { eraseErr = err })
	})
	env.Run()
	if progErr != ErrBadBlock || eraseErr != ErrBadBlock {
		t.Fatalf("errs = %v / %v, want ErrBadBlock", progErr, eraseErr)
	}
}

func TestDieParallelismAcrossWays(t *testing.T) {
	// Two programs to different ways of the same channel share the bus but
	// program concurrently: total time ≈ 2 bus transfers + one TProg.
	env := sim.NewEnv(1)
	a := New(env, smallGeo(), DefaultTiming)
	var last time.Duration
	env.Go("io", func(p *sim.Proc) {
		n := 0
		sig := env.NewSignal()
		cb := func([]byte, error) { n++; last = env.Now(); sig.Broadcast() }
		a.Program(p, PageAddr{0, 0, 0, 0}, page(a, 1), cb)
		a.Program(p, PageAddr{0, 1, 0, 0}, page(a, 2), cb)
		p.WaitFor(sig, func() bool { return n == 2 })
	})
	env.Run()
	serial := 2 * DefaultTiming.TProg
	if last >= serial {
		t.Fatalf("two-way programs took %v, not parallel (serial would be ≥%v)", last, serial)
	}
}

func TestSameDieSerializes(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, smallGeo(), DefaultTiming)
	var last time.Duration
	env.Go("io", func(p *sim.Proc) {
		a.Program(p, PageAddr{0, 0, 0, 0}, page(a, 1), func([]byte, error) {})
		a.Program(p, PageAddr{0, 0, 0, 1}, page(a, 2), func([]byte, error) { last = env.Now() })
	})
	env.Run()
	if last < 2*DefaultTiming.TProg {
		t.Fatalf("same-die programs finished at %v, want ≥ 2×TProg", last)
	}
}

func TestDieBusyAndFreedSignal(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, smallGeo(), DefaultTiming)
	freed := false
	env.Go("watcher", func(p *sim.Proc) {
		p.WaitFor(a.Freed, func() bool { return !a.DieBusy(0, 0) && a.Stats2() > 0 })
		freed = true
	})
	env.Go("io", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		if a.DieBusy(0, 0) {
			t.Error("die busy before any op")
		}
		a.Program(p, PageAddr{0, 0, 0, 0}, page(a, 1), func([]byte, error) {})
		if !a.DieBusy(0, 0) {
			t.Error("die not busy during program")
		}
	})
	env.Run()
	if !freed {
		t.Fatal("Freed signal never observed")
	}
}

// Stats2 is a test helper: number of programs issued.
func (a *Array) Stats2() int64 { _, p, _ := a.Stats(); return p }

func TestAddressValidation(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, smallGeo(), DefaultTiming)
	var errProg, errRead error
	env.Go("io", func(p *sim.Proc) {
		a.Program(p, PageAddr{9, 0, 0, 0}, page(a, 1), func(_ []byte, err error) { errProg = err })
		a.Read(PageAddr{0, 0, 0, 99}, page(a, 0), func(_ []byte, err error) { errRead = err })
	})
	env.Run()
	if errProg != ErrAddrRange || errRead != ErrAddrRange {
		t.Fatalf("errs = %v / %v, want ErrAddrRange", errProg, errRead)
	}
}

// TestReadBufferMustBeOnePage: a read fills the caller's buffer, so a
// buffer that is not exactly one page fails before the die is touched.
func TestReadBufferMustBeOnePage(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, smallGeo(), DefaultTiming)
	var err error
	env.Go("io", func(p *sim.Proc) {
		a.Program(p, PageAddr{0, 0, 0, 0}, page(a, 1), func([]byte, error) {})
		p.Sleep(time.Millisecond)
		a.Read(PageAddr{0, 0, 0, 0}, make([]byte, a.Geometry().PageSize-1), func(_ []byte, e error) { err = e })
	})
	env.Run()
	if reads, _, _ := a.Stats(); err != ErrWrongSize || reads != 0 {
		t.Fatalf("err = %v after %d reads, want ErrWrongSize and none", err, reads)
	}
}

func TestReadUnwrittenPage(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, smallGeo(), DefaultTiming)
	var err error
	env.Go("io", func(p *sim.Proc) {
		a.Read(PageAddr{0, 0, 0, 0}, page(a, 0), func(_ []byte, e error) { err = e })
	})
	env.Run()
	if err != ErrUnwritten {
		t.Fatalf("err = %v, want ErrUnwritten", err)
	}
}

func TestWrongPayloadSize(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, smallGeo(), DefaultTiming)
	var err error
	env.Go("io", func(p *sim.Proc) {
		a.Program(p, PageAddr{0, 0, 0, 0}, []byte{1, 2, 3}, func(_ []byte, e error) { err = e })
	})
	env.Run()
	if err != ErrWrongSize {
		t.Fatalf("err = %v, want ErrWrongSize", err)
	}
}

// TestProgramEraseAllocations: once one block's pages have been erased,
// programming a never-programmed block and erasing it allocate nothing,
// and the buffer table grows no further: a program takes the buffer an
// erase returned.
func TestProgramEraseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own schedule")
	}
	geo := Geometry{Channels: 1, WaysPerChan: 1, BlocksPerDie: 128, PagesPerBlock: 4, PageSize: 512}
	env := sim.NewEnv(1)
	defer env.Close()
	a := New(env, geo, DefaultTiming)
	data := page(a, 7)
	pending := 0
	sig := env.NewSignal()
	done := func(_ []byte, err error) {
		if err != nil {
			t.Fatalf("flash op: %v", err)
		}
		pending--
		sig.Broadcast()
	}
	idle := func() bool { return pending == 0 }
	kick := env.NewSignal()
	block := 0
	env.Go("cycler", func(p *sim.Proc) {
		for {
			p.Wait(kick)
			for pg := 0; pg < geo.PagesPerBlock; pg++ {
				pending++
				a.Program(p, PageAddr{Block: block, Page: pg}, data, done)
			}
			p.WaitFor(sig, idle)
			pending++
			a.Erase(BlockAddr{Block: block}, done)
			p.WaitFor(sig, idle)
			block++
		}
	})
	env.Run()
	round := func() {
		kick.Broadcast()
		env.Run()
	}
	round() // warm-up: the first block's buffers, and the free list's room for them
	if n := testing.AllocsPerRun(geo.BlocksPerDie-2, round); n != 0 {
		t.Errorf("programming a fresh block and erasing it allocates %v objects, want 0", n)
	}
	if block != geo.BlocksPerDie {
		t.Fatalf("cycled %d blocks, want all %d", block, geo.BlocksPerDie)
	}
	if len(a.bufs) != geo.PagesPerBlock {
		t.Fatalf("buffer table holds %d buffers after cycling one block at a time, want %d", len(a.bufs), geo.PagesPerBlock)
	}
}
