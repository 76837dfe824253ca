package pcie

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"xssd/internal/sim"
)

// The one-line store path (fill the WC buffer, post it, sleep) stays in the
// code, so it is the reference the train is held to: the same bytes stored
// as one Store of k lines and as k one-line Stores must be indistinguishable
// to the link, to the device and to every other process.

// lineTime is one full line's serialization on testRegion's link.
const lineTime = 42 * time.Nanosecond // (64+20) B at 2 GB/s

// timedRecorder logs every delivery with its arrival time.
type timedRecorder struct {
	env *sim.Env
	log []string
}

func (r *timedRecorder) MemWrite(off int64, data []byte) {
	r.log = append(r.log, fmt.Sprintf("%v deliver %d+%d %x", r.env.Now(), off, len(data), data[:2]))
}

func (r *timedRecorder) MemRead(off int64, dst []byte) { clear(dst) }

// storeAs stores data at off as one Store, or line by line.
func storeAs(p *sim.Proc, mm *MMIO, off int64, data []byte, oneByOne bool) {
	if !oneByOne {
		mm.Store(p, off, data)
		return
	}
	for ; len(data) > 0; off, data = off+WCLineSize, data[WCLineSize:] {
		mm.Store(p, off, data[:WCLineSize])
	}
}

// trainRun drives one seeded scenario — a writer storing runs of whole lines
// with short pauses, beside a process issuing register reads and DMAs on the
// same link at instants on a half-line grid, so that every other one ties
// exactly with a line boundary — and returns everything an observer could
// see: deliveries, Store return times, the other process's completions, the
// link's totals and the final clock. ties counts the other process's
// wake-ups that fell on a line boundary of a store in progress.
func trainRun(seed int64, oneByOne bool) (log []string, switches int64, ties int) {
	env := sim.NewEnv(1)
	defer env.Close()
	link := env.NewLink("pcie", 4*Gen2.LaneBandwidth(), 200*time.Nanosecond)
	rec := &timedRecorder{env: env}
	region := NewRegion(env, link, rec, 1<<20)
	mm := NewMMIO(region, WriteCombining)
	host := NewHostMemory(1 << 16)

	wr := rand.New(rand.NewSource(seed))
	stores := 1 + wr.Intn(6)
	writing := true
	storing, storeStart := false, time.Duration(0)
	env.Go("writer", func(p *sim.Proc) {
		off := int64(0)
		for i := 0; i < stores; i++ {
			data := make([]byte, (2+wr.Intn(30))*WCLineSize)
			wr.Read(data)
			storing, storeStart = true, p.Now()
			storeAs(p, mm, off, data, oneByOne)
			storing = false
			rec.log = append(rec.log, fmt.Sprintf("%v store %d returned", p.Now(), i))
			off += int64(len(data))
			p.Sleep(time.Duration(wr.Intn(4)) * lineTime / 2)
		}
		writing = false
	})
	nr := rand.New(rand.NewSource(seed ^ 0x5eed))
	env.Go("other", func(p *sim.Proc) {
		for i := 0; writing; i++ {
			const grid = lineTime / 2
			next := (p.Now()+grid-1)/grid*grid + time.Duration(nr.Intn(5))*grid
			p.SleepUntil(next)
			if storing && (p.Now()-storeStart)%lineTime == 0 {
				ties++
			}
			switch nr.Intn(3) {
			case 0:
				region.read(p, 0, make([]byte, 8))
			case 1:
				host.DMAReadInto(p, link, 0, make([]byte, 1+nr.Intn(600)))
			default:
				host.DMAWrite(p, link, 0, make([]byte, 1+nr.Intn(600)))
			}
			rec.log = append(rec.log, fmt.Sprintf("%v other op %d done", p.Now(), i))
		}
	})
	env.Run()
	bytes, busy, xfers := link.Stats()
	rec.log = append(rec.log, fmt.Sprintf("link %d B, busy %v, %d transfers, end %v", bytes, busy, xfers, env.Now()))
	return rec.log, env.Switches(), ties
}

func TestQuickTrainMatchesOneLineStores(t *testing.T) {
	ties := 0
	f := func(seed int64) bool {
		train, trainSwitches, n := trainRun(seed, false)
		lines, lineSwitches, _ := trainRun(seed, true)
		ties += n
		if !reflect.DeepEqual(train, lines) {
			for i := range train {
				if i >= len(lines) || train[i] != lines[i] {
					t.Logf("seed %d, entry %d:\n  train: %s\n  lines: %s", seed, i, train[i], lines[min(i, len(lines)-1)])
					break
				}
			}
			return false
		}
		if trainSwitches >= lineSwitches {
			t.Logf("seed %d: %d process switches as a train, %d line by line", seed, trainSwitches, lineSwitches)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if ties < 60 {
		t.Errorf("only %d exact ties between the other process and a line boundary in 60 scenarios; the grid is off", ties)
	}
}

// TestTrainSwitchesOncePerStore: a k-line store costs the storing process
// one switch, whatever k is, and exactly the events k one-line stores cost.
func TestTrainSwitchesOncePerStore(t *testing.T) {
	cost := func(k int, oneByOne bool) (events, switches int64) {
		env := sim.NewEnv(1)
		defer env.Close()
		region, _ := testRegion(env, 1<<20)
		mm := NewMMIO(region, WriteCombining)
		env.Go("writer", func(p *sim.Proc) {
			p.Sleep(time.Microsecond)
			events, switches = env.Events(), env.Switches()
			storeAs(p, mm, 0, make([]byte, k*WCLineSize), oneByOne)
			switches = env.Switches() - switches
		})
		env.Run()
		return env.Events() - events, switches
	}
	for _, k := range []int{2, 16, 256} {
		events, switches := cost(k, false)
		refEvents, refSwitches := cost(k, true)
		if switches != 1 || refSwitches != int64(k) {
			t.Errorf("k=%d: %d switches as a train, want 1; %d line by line, want %d", k, switches, refSwitches, k)
		}
		if events != refEvents {
			t.Errorf("k=%d: %d events as a train, %d line by line", k, events, refEvents)
		}
	}
	// One line, a partial line and a line's worth off the boundary keep the
	// loop, where there is nothing to save; an unaligned run pays for its
	// head line and joins the train at the first boundary.
	for _, tc := range []struct {
		off, n   int64
		switches int64
	}{{0, 64, 1}, {0, 40, 0}, {8, 64, 1}, {8, 56 + 3*64 + 5, 2}} {
		env := sim.NewEnv(1)
		region, rec := testRegion(env, 1<<20)
		mm := NewMMIO(region, WriteCombining)
		var got int64
		env.Go("writer", func(p *sim.Proc) {
			p.Sleep(time.Microsecond)
			before := env.Switches()
			mm.Store(p, tc.off, make([]byte, tc.n))
			got = env.Switches() - before
			mm.Fence(p)
		})
		env.Run()
		if got != tc.switches {
			t.Errorf("Store(%d, %d bytes): %d switches, want %d", tc.off, tc.n, got, tc.switches)
		}
		var delivered int64
		for _, w := range rec.writes {
			delivered += int64(len(w.Data))
		}
		if delivered != tc.n {
			t.Errorf("Store(%d, %d bytes): %d bytes delivered", tc.off, tc.n, delivered)
		}
		env.Close()
	}
}

// TestTwoHandlesStoreConcurrently: the train's state lives in the MMIO
// handle, one per simulated core, so two cores storing through one Region at
// once interleave on the wire exactly as their one-line stores would.
func TestTwoHandlesStoreConcurrently(t *testing.T) {
	run := func(oneByOne bool) []string {
		env := sim.NewEnv(1)
		defer env.Close()
		link := env.NewLink("pcie", 4*Gen2.LaneBandwidth(), 200*time.Nanosecond)
		rec := &timedRecorder{env: env}
		region := NewRegion(env, link, rec, 1<<20)
		for core := 0; core < 2; core++ {
			mm := NewMMIO(region, WriteCombining)
			base, fill := int64(core)<<16, byte(0xA0+core)
			env.Go(fmt.Sprintf("core%d", core), func(p *sim.Proc) {
				p.Sleep(time.Duration(core) * 3 * lineTime / 2) // core 1 starts between two of core 0's lines
				data := make([]byte, (9+4*core)*WCLineSize)
				for i := range data {
					data[i] = fill
				}
				storeAs(p, mm, base, data, oneByOne)
				rec.log = append(rec.log, fmt.Sprintf("%v core %d returned", p.Now(), core))
			})
		}
		env.Run()
		return rec.log
	}
	train, lines := run(false), run(true)
	if !reflect.DeepEqual(train, lines) {
		t.Fatalf("two concurrent trains differ from their one-line stores:\n train: %v\n lines: %v", train, lines)
	}
	if len(train) != 9+13+2 {
		t.Fatalf("%d log entries, want 22 deliveries and 2 returns", len(train))
	}
}

// TestCloseMidTrain closes the Env while a train is half sent: the storing
// process is parked with only the chain's next step pending, and Close must
// unwind it and leave no goroutine behind.
func TestCloseMidTrain(t *testing.T) {
	base := runtime.NumGoroutine()
	env := sim.NewEnv(1)
	region, rec := testRegion(env, 1<<20)
	mm := NewMMIO(region, WriteCombining)
	unwound := false
	env.Go("writer", func(p *sim.Proc) {
		defer func() { unwound = true }()
		mm.Store(p, 0, make([]byte, 100*WCLineSize))
		t.Error("Store returned from a closed Env")
	})
	env.RunUntil(50 * lineTime)
	if n := len(rec.writes); n == 0 || n >= 100 {
		t.Fatalf("%d lines delivered at the cut, want some but not all", n)
	}
	env.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, started with %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
	if !unwound {
		t.Error("Close did not unwind the process parked in Store")
	}
}

// TestHostPacingIsLinkOccupancy: whatever the link's bandwidth — the last
// is one where a bare header serializes in under a nanosecond and the floor
// applies — a core posting stores back to back on an idle link keeps it
// exactly busy: after every Store the link's busy time equals the core's
// clock.
func TestHostPacingIsLinkOccupancy(t *testing.T) {
	for _, bw := range []float64{4 * Gen2.LaneBandwidth(), 16 * Gen4.LaneBandwidth(), 200e9} {
		env := sim.NewEnv(1)
		link := env.NewLink("pcie", bw, 200*time.Nanosecond)
		region := NewRegion(env, link, newRecorder(1<<16), 1<<16)
		mm := NewMMIO(region, WriteCombining)
		env.Go("core", func(p *sim.Proc) {
			off := int64(0)
			for i, n := range []int{64, 640, 64, 7 * 64, 128} {
				mm.Store(p, off, make([]byte, n))
				off += int64(n)
				if _, busy, _ := link.Stats(); busy != p.Now() {
					t.Fatalf("%.3g B/s, store %d: link busy %v, core at %v", bw, i, busy, p.Now())
				}
			}
		})
		env.Run()
		env.Close()
	}
}
