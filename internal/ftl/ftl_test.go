package ftl

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"xssd/internal/nand"
	"xssd/internal/obs"
	"xssd/internal/sched"
	"xssd/internal/sim"
)

func tinyGeo() nand.Geometry {
	return nand.Geometry{Channels: 2, WaysPerChan: 2, BlocksPerDie: 8, PagesPerBlock: 8, PageSize: 256}
}

// fastTiming keeps GC-heavy tests quick in virtual time.
var fastTiming = nand.Timing{
	TRead:   5 * time.Microsecond,
	TProg:   20 * time.Microsecond,
	TErase:  100 * time.Microsecond,
	BusRate: 1e9,
}

func setup(seed int64) (*sim.Env, *nand.Array, *FTL) {
	env := sim.NewEnv(seed)
	arr := nand.New(env, tinyGeo(), fastTiming)
	sch := sched.New(env, arr, sched.Neutral)
	f := New(env, arr, sch, DefaultConfig)
	return env, arr, f
}

func fill(f *FTL, lpn int64, tag byte) []byte {
	b := make([]byte, f.PageSize())
	b[0] = tag
	b[1] = byte(lpn)
	b[2] = byte(lpn >> 8)
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	env, _, f := setup(1)
	env.Go("io", func(p *sim.Proc) {
		for lpn := int64(0); lpn < 10; lpn++ {
			if err := f.Write(p, lpn, fill(f, lpn, 7), sched.Conventional); err != nil {
				t.Errorf("write %d: %v", lpn, err)
			}
		}
		for lpn := int64(0); lpn < 10; lpn++ {
			got, err := f.Read(p, lpn)
			if err != nil {
				t.Errorf("read %d: %v", lpn, err)
				continue
			}
			if !bytes.Equal(got, fill(f, lpn, 7)) {
				t.Errorf("lpn %d content wrong", lpn)
			}
		}
	})
	env.RunUntil(time.Second)
}

func TestUnmappedRead(t *testing.T) {
	env, _, f := setup(1)
	env.Go("io", func(p *sim.Proc) {
		if _, err := f.Read(p, 3); err != ErrUnmapped {
			t.Errorf("err = %v, want ErrUnmapped", err)
		}
	})
	env.RunUntil(time.Second)
}

func TestRangeChecks(t *testing.T) {
	env, _, f := setup(1)
	env.Go("io", func(p *sim.Proc) {
		if err := f.Write(p, f.LogicalPages(), fill(f, 0, 1), sched.Conventional); err != ErrRange {
			t.Errorf("write err = %v, want ErrRange", err)
		}
		if _, err := f.Read(p, -1); err != ErrRange {
			t.Errorf("read err = %v, want ErrRange", err)
		}
		if err := f.Trim(f.LogicalPages() + 5); err != ErrRange {
			t.Errorf("trim err = %v, want ErrRange", err)
		}
		if err := f.Write(p, 0, []byte{1, 2}, sched.Conventional); err == nil {
			t.Error("short payload accepted")
		}
	})
	env.RunUntil(time.Second)
}

func TestOverwritesTriggerGCAndDataSurvives(t *testing.T) {
	env, _, f := setup(2)
	// Working set of 16 logical pages rewritten many times: raw capacity is
	// 256 pages, so versions pile up and GC must reclaim.
	const hot = 16
	version := make([]int, hot)
	env.Go("io", func(p *sim.Proc) {
		for round := 0; round < 80; round++ {
			lpn := int64(round % hot)
			version[lpn]++
			data := fill(f, lpn, byte(version[lpn]))
			if err := f.Write(p, lpn, data, sched.Conventional); err != nil {
				t.Errorf("round %d write: %v", round, err)
				return
			}
		}
		for lpn := int64(0); lpn < hot; lpn++ {
			got, err := f.Read(p, lpn)
			if err != nil {
				t.Errorf("read %d: %v", lpn, err)
				continue
			}
			if got[0] != byte(version[lpn]) {
				t.Errorf("lpn %d: version %d, want %d", lpn, got[0], version[lpn])
			}
		}
	})
	env.RunUntil(10 * time.Second)
	// 80 writes over 256 raw pages with a hot set does not require GC;
	// push further in a second phase to force it.
	env.Go("io2", func(p *sim.Proc) {
		for round := 0; round < 400; round++ {
			lpn := int64(round % hot)
			version[lpn]++
			if err := f.Write(p, lpn, fill(f, lpn, byte(version[lpn])), sched.Conventional); err != nil {
				t.Errorf("phase2 round %d: %v", round, err)
				return
			}
		}
		for lpn := int64(0); lpn < hot; lpn++ {
			got, err := f.Read(p, lpn)
			if err != nil {
				t.Errorf("phase2 read %d: %v", lpn, err)
				continue
			}
			if got[0] != byte(version[lpn]) {
				t.Errorf("phase2 lpn %d: version %d, want %d", lpn, got[0], version[lpn])
			}
		}
	})
	env.RunUntil(time.Minute)
	st := f.Stats()
	if st.GCErases == 0 {
		t.Fatalf("GC never ran: %+v", st)
	}
	if st.WriteAmplification() < 1.0 {
		t.Fatalf("write amplification %.2f < 1", st.WriteAmplification())
	}
}

func TestBadBlockRetriedTransparently(t *testing.T) {
	env, arr, f := setup(3)
	// Poison the first block of every die: first allocation on each die
	// hits it and must retry.
	geo := arr.Geometry()
	for ch := 0; ch < geo.Channels; ch++ {
		for w := 0; w < geo.WaysPerChan; w++ {
			arr.MarkBad(nand.BlockAddr{Channel: ch, Way: w, Block: 0})
		}
	}
	env.Go("io", func(p *sim.Proc) {
		for lpn := int64(0); lpn < 8; lpn++ {
			if err := f.Write(p, lpn, fill(f, lpn, 9), sched.Conventional); err != nil {
				t.Errorf("write %d: %v", lpn, err)
			}
		}
		for lpn := int64(0); lpn < 8; lpn++ {
			got, err := f.Read(p, lpn)
			if err != nil || got[0] != 9 {
				t.Errorf("read %d after bad-block retry: %v", lpn, err)
			}
		}
	})
	env.RunUntil(time.Second)
	if f.Stats().BadRetries == 0 {
		t.Fatal("no bad-block retries recorded")
	}
}

func TestTrimInvalidates(t *testing.T) {
	env, _, f := setup(4)
	env.Go("io", func(p *sim.Proc) {
		if err := f.Write(p, 5, fill(f, 5, 1), sched.Conventional); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := f.Trim(5); err != nil {
			t.Fatalf("trim: %v", err)
		}
		if _, err := f.Read(p, 5); err != ErrUnmapped {
			t.Errorf("read after trim: %v, want ErrUnmapped", err)
		}
	})
	env.RunUntil(time.Second)
}

func TestConcurrentWritersStripeAcrossDies(t *testing.T) {
	env, arr, f := setup(5)
	const writers = 4
	doneAt := make([]time.Duration, writers)
	for w := 0; w < writers; w++ {
		w := w
		env.Go("writer", func(p *sim.Proc) {
			base := int64(w * 10)
			for i := int64(0); i < 4; i++ {
				if err := f.Write(p, base+i, fill(f, base+i, byte(w)), sched.Conventional); err != nil {
					t.Errorf("writer %d: %v", w, err)
				}
			}
			doneAt[w] = p.Now()
		})
	}
	env.RunUntil(time.Second)
	_, progs, _ := arr.Stats()
	if progs != 16 {
		t.Fatalf("programs = %d, want 16", progs)
	}
	// 16 pages across 4 dies in parallel should finish well under the
	// serial time of 16 * (TProg + transfer).
	serial := 16 * fastTiming.TProg
	for w, d := range doneAt {
		if d >= serial {
			t.Fatalf("writer %d finished at %v, no parallelism (serial = %v)", w, d, serial)
		}
	}
}

// property: random writes/overwrites against a shadow map stay consistent
// through GC churn.
func TestQuickShadowConsistencyUnderGC(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(0); seed < 3; seed++ {
		env, _, f := setup(100 + seed)
		rng := rand.New(rand.NewSource(seed))
		shadow := map[int64]byte{}
		env.Go("chaos", func(p *sim.Proc) {
			for op := 0; op < 600; op++ {
				lpn := int64(rng.Intn(40))
				switch rng.Intn(4) {
				case 0, 1, 2:
					tag := byte(rng.Intn(255) + 1)
					if err := f.Write(p, lpn, fill(f, lpn, tag), sched.Conventional); err != nil {
						t.Errorf("seed %d op %d write: %v", seed, op, err)
						return
					}
					shadow[lpn] = tag
				case 3:
					got, err := f.Read(p, lpn)
					want, ok := shadow[lpn]
					if !ok {
						if err != ErrUnmapped {
							t.Errorf("seed %d: read unmapped %d: %v", seed, lpn, err)
						}
						continue
					}
					if err != nil {
						t.Errorf("seed %d: read %d: %v", seed, lpn, err)
						return
					}
					if got[0] != want {
						t.Errorf("seed %d: lpn %d = %d, want %d", seed, lpn, got[0], want)
						return
					}
				}
			}
		})
		env.RunUntil(time.Minute)
	}
}

// TestObserveSplitsHostPagesBySource drives both host classes over a hot
// set until the collector runs and reads the account back from the
// registry alone: the per-class gauges sum to host_pages, and waf_milli is
// Stats.WriteAmplification in thousandths.
func TestObserveSplitsHostPagesBySource(t *testing.T) {
	env, _, f := setup(5)
	f.Observe(obs.For(env).Scope("d/ftl"))
	// Every third write is a destage page; the conventional ones rewrite a
	// hot set, except that the first hundred of them lay down cold pages
	// the collector will have to move out of mostly-invalid blocks.
	const hot, cold = 16, 100
	env.Go("io", func(p *sim.Proc) {
		conv := 0
		for round := 0; round < 600; round++ {
			src, lpn := sched.Destage, int64(round%hot)
			if round%3 != 0 {
				src = sched.Conventional
				if conv++; conv <= cold {
					lpn = int64(hot + conv)
				}
			}
			if err := f.Write(p, lpn, fill(f, lpn, byte(round)), src); err != nil {
				t.Errorf("round %d: %v", round, err)
				return
			}
		}
	})
	env.RunUntil(time.Second)
	gauge := map[string]int64{}
	for _, g := range obs.For(env).Snapshot().Gauges {
		gauge[g.Name] = g.Value
	}
	st := f.Stats()
	if st.GCPages == 0 {
		t.Fatalf("collector migrated nothing: %+v", st)
	}
	if d, c := gauge["d/ftl/destage_pages"], gauge["d/ftl/conventional_pages"]; d != 200 || c != 400 || d+c != gauge["d/ftl/host_pages"] {
		t.Fatalf("destage %d + conventional %d pages, host_pages %d; want 200 + 400", d, c, gauge["d/ftl/host_pages"])
	}
	if got := gauge["d/ftl/gc_pages"]; got != st.GCPages {
		t.Fatalf("gc_pages gauge %d, Stats %d", got, st.GCPages)
	}
	if got, want := gauge["d/ftl/waf_milli"], int64(st.WriteAmplification()*1000+0.5); got != want || got <= 1000 {
		t.Fatalf("waf_milli = %d, want %d (> 1000 with the collector running)", got, want)
	}
}

// TestCollectorSkipsBlocksWithProgramsInFlight: a sealed block whose last
// program is still queued is no victim. Two writers start at one instant on
// a one-die array. The first takes the last page of the open block, whose
// other page is stale; the second seals that block and opens a new one,
// which leaves the die at its GC threshold and wakes the collector while
// the first program is still queued. The sealed block holds no valid page
// yet, so a collector that took it would erase it behind the program, and
// the first write would map into an erased block.
func TestCollectorSkipsBlocksWithProgramsInFlight(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	geo := nand.Geometry{Channels: 1, WaysPerChan: 1, BlocksPerDie: 5, PagesPerBlock: 2, PageSize: 256}
	arr := nand.New(env, geo, fastTiming)
	f := New(env, arr, sched.New(env, arr, sched.Neutral), DefaultConfig)
	env.Go("stale", func(p *sim.Proc) {
		if err := f.Write(p, 0, fill(f, 0, 1), sched.Conventional); err != nil {
			t.Error(err)
		}
		if err := f.Trim(0); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	for lpn := int64(1); lpn <= 2; lpn++ {
		env.Go("writer", func(p *sim.Proc) {
			if err := f.Write(p, lpn, fill(f, lpn, 2), sched.Conventional); err != nil {
				t.Errorf("write %d: %v", lpn, err)
			}
		})
	}
	env.Run()
	if f.Stats().GCErases == 0 {
		t.Fatal("the collector never ran")
	}
	env.Go("reader", func(p *sim.Proc) {
		for lpn := int64(1); lpn <= 2; lpn++ {
			got, err := f.Read(p, lpn)
			if err != nil {
				t.Errorf("read %d: %v", lpn, err)
			} else if !bytes.Equal(got, fill(f, lpn, 2)) {
				t.Errorf("read %d: stale image (tag %d, lpn %d)", lpn, got[0], int(got[1])|int(got[2])<<8)
			}
		}
	})
	env.Run()
}
