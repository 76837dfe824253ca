package villars

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"xssd/internal/core"
	"xssd/internal/nand"
	"xssd/internal/ntb"
	"xssd/internal/nvme"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/pm"
	"xssd/internal/sched"
	"xssd/internal/sim"
)

// testConfig returns a small, fast device configuration.
func testConfig(name string) Config {
	cfg := DefaultConfig(name)
	cfg.Geometry = nand.Geometry{Channels: 2, WaysPerChan: 2, BlocksPerDie: 32, PagesPerBlock: 32, PageSize: 2048}
	cfg.Timing = nand.Timing{TRead: 5 * time.Microsecond, TProg: 20 * time.Microsecond, TErase: 100 * time.Microsecond, BusRate: 1e9}
	cfg.QueueSize = 4096
	cfg.CMBSize = 64 << 10
	cfg.DestageLatencyBound = 200 * time.Microsecond
	return cfg
}

func newDevice(env *sim.Env, name string) *Device {
	return New(env, testConfig(name), pcie.NewHostMemory(1<<20))
}

// hostWrite pushes data to the device's CMB window at a stream offset via
// write-combining MMIO and fences.
func hostWrite(p *sim.Proc, mm *pcie.MMIO, off int64, data []byte) {
	mm.Store(p, off, data)
	mm.Fence(p)
}

func readReg(p *sim.Proc, ctl *pcie.MMIO, reg int64) int64 {
	b := ctl.Load(p, reg, 8)
	var v int64
	for i := 0; i < 8; i++ {
		v |= int64(b[i]) << (8 * i)
	}
	return v
}

func TestFastWriteAdvancesCredit(t *testing.T) {
	env := sim.NewEnv(1)
	d := newDevice(env, "a")
	mm := pcie.NewMMIO(d.DataRegion(), pcie.WriteCombining)
	ctl := pcie.NewMMIO(d.ControlRegion(), pcie.Uncached)
	env.Go("host", func(p *sim.Proc) {
		hostWrite(p, mm, 0, []byte("transaction log record #1"))
		p.WaitFor(d.CMB().CreditChanged, func() bool { return d.CMB().Ring().Frontier() == 25 })
		// Check ring content now, before the destage module releases it.
		got, err := d.CMB().Ring().Read(0, 25)
		if err != nil || string(got) != "transaction log record #1" {
			t.Errorf("ring content %q err=%v", got, err)
		}
		if got := readReg(p, ctl, core.RegCredit); got != 25 {
			t.Errorf("credit register = %d, want 25", got)
		}
		if got := readReg(p, ctl, core.RegQueueSize); got != 4096 {
			t.Errorf("queue size register = %d", got)
		}
	})
	env.RunUntil(50 * time.Millisecond)
}

func TestOutOfOrderArrivalWithholdsCredit(t *testing.T) {
	env := sim.NewEnv(1)
	d := newDevice(env, "a")
	env.Go("host", func(p *sim.Proc) {
		// Deliver [100,108) before [0,100): credit must stay at 0 until
		// the prefix arrives.
		d.CMB().MemWrite(100, []byte("deferred"))
		p.Sleep(10 * time.Microsecond)
		if d.CMB().Ring().Frontier() != 0 {
			t.Errorf("credit advanced over a gap: %d", d.CMB().Ring().Frontier())
		}
		d.CMB().MemWrite(0, make([]byte, 100))
		p.Sleep(10 * time.Microsecond)
		if d.CMB().Ring().Frontier() != 108 {
			t.Errorf("credit = %d after gap fill, want 108", d.CMB().Ring().Frontier())
		}
	})
	env.RunUntil(time.Millisecond)
}

func TestQueueOverrunDropsWrites(t *testing.T) {
	env := sim.NewEnv(1)
	d := newDevice(env, "a")
	env.Go("host", func(p *sim.Proc) {
		// Blast 3x the queue size in one scheduler instant: the drain
		// cannot keep up, so later TLPs find the queue full.
		for i := 0; i < 3; i++ {
			d.CMB().MemWrite(int64(i*4096), make([]byte, 4096))
		}
	})
	env.RunUntil(10 * time.Millisecond)
	if d.Stats().CMB.Overruns == 0 {
		t.Fatal("no overruns recorded despite 3x queue burst")
	}
}

func TestDestageMovesRingToFlash(t *testing.T) {
	env := sim.NewEnv(1)
	d := newDevice(env, "a")
	payloadLen := d.cfg.Geometry.PageSize - PageHeaderLen
	want := make([]byte, payloadLen)
	for i := range want {
		want[i] = byte(i * 13)
	}
	env.Go("host", func(p *sim.Proc) {
		d.CMB().MemWrite(0, want) // full page worth: destages immediately
	})
	env.RunUntil(50 * time.Millisecond)
	if d.Destage().DestagedStream() != int64(payloadLen) {
		t.Fatalf("destaged %d bytes, want %d", d.Destage().DestagedStream(), payloadLen)
	}
	// Read back LBA 0 and parse the destage header.
	var page []byte
	env.Go("verify", func(p *sim.Proc) {
		var err error
		page, err = d.FTL().Read(p, 0)
		if err != nil {
			t.Errorf("read destaged page: %v", err)
		}
	})
	env.RunUntil(env.Now() + 50*time.Millisecond)
	off, n, ok := DecodePageHeader(page)
	if !ok || off != 0 || n != payloadLen {
		t.Fatalf("header = (%d,%d,%v)", off, n, ok)
	}
	if !bytes.Equal(page[PageHeaderLen:PageHeaderLen+n], want) {
		t.Fatal("destaged payload corrupted")
	}
	// The PM ring must have been released.
	if d.CMB().Ring().Live() != 0 {
		t.Fatalf("ring still holds %d live bytes", d.CMB().Ring().Live())
	}
}

func TestLatencyBoundDestagesPartialPage(t *testing.T) {
	env := sim.NewEnv(1)
	d := newDevice(env, "a")
	env.Go("host", func(p *sim.Proc) {
		d.CMB().MemWrite(0, []byte("tiny record"))
	})
	env.RunUntil(50 * time.Millisecond)
	ds := d.Stats().Destage
	total, partial := ds.Pages, ds.PartialPages
	if total != 1 || partial != 1 {
		t.Fatalf("pages = (%d,%d), want one padded page", total, partial)
	}
	if d.Destage().DestagedStream() != 11 {
		t.Fatalf("destaged stream = %d", d.Destage().DestagedStream())
	}
}

func TestCrashConsistencyDestagesPrefixDropsGap(t *testing.T) {
	env := sim.NewEnv(1)
	d := newDevice(env, "a")
	env.Go("host", func(p *sim.Proc) {
		d.CMB().MemWrite(0, bytes.Repeat([]byte{0xAA}, 300))  // contiguous
		d.CMB().MemWrite(500, bytes.Repeat([]byte{0xBB}, 80)) // beyond a gap
		p.Sleep(20 * time.Microsecond)
		d.InjectPowerLoss()
	})
	env.RunUntil(200 * time.Millisecond)
	if !d.Drained() {
		t.Fatal("crash protocol did not finish draining")
	}
	if got := d.Destage().DestagedStream(); got != 300 {
		t.Fatalf("destaged %d bytes after crash, want exactly the 300-byte prefix", got)
	}
	var page []byte
	env.Go("verify", func(p *sim.Proc) {
		var err error
		page, err = d.FTL().Read(p, 0)
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	env.RunUntil(env.Now() + 50*time.Millisecond)
	off, n, ok := DecodePageHeader(page)
	if !ok || off != 0 || n != 300 {
		t.Fatalf("post-crash page header = (%d,%d,%v)", off, n, ok)
	}
	for _, b := range page[PageHeaderLen : PageHeaderLen+n] {
		if b != 0xAA {
			t.Fatal("post-crash payload corrupted")
		}
	}
}

func TestWritesRejectedAfterPowerLoss(t *testing.T) {
	env := sim.NewEnv(1)
	d := newDevice(env, "a")
	env.Go("host", func(p *sim.Proc) {
		d.InjectPowerLoss()
		d.CMB().MemWrite(0, []byte("too late"))
	})
	env.RunUntil(10 * time.Millisecond)
	if d.Stats().CMB.BytesIn != 0 {
		t.Fatal("write accepted after power loss")
	}
}

// cluster wires a primary with one secondary over NTB.
func cluster(env *sim.Env) (*Device, *Device) {
	prim := newDevice(env, "prim")
	sec := newDevice(env, "sec")
	toSec := ntb.NewDefaultBridgeTo(env, env, "p->s")
	toPrim := ntb.NewDefaultBridgeTo(env, env, "s->p")
	sec.Transport().setMode(core.Secondary)
	prim.Transport().AddPeer(sec, toSec, toPrim)
	prim.Transport().setMode(core.Primary)
	return prim, sec
}

func TestReplicationMirrorsStreamToSecondary(t *testing.T) {
	env := sim.NewEnv(1)
	prim, sec := cluster(env)
	msg := []byte("replicate me, exactly once, in order")
	env.Go("host", func(p *sim.Proc) {
		prim.CMB().MemWrite(0, msg)
	})
	env.RunUntil(50 * time.Millisecond)
	if sec.CMB().Ring().Frontier() != int64(len(msg)) {
		t.Fatalf("secondary frontier = %d, want %d", sec.CMB().Ring().Frontier(), len(msg))
	}
	// Secondary destages too (its ring drains), so check the destaged page.
	var page []byte
	env.Go("verify", func(p *sim.Proc) {
		page, _ = sec.FTL().Read(p, 0)
	})
	env.RunUntil(env.Now() + 50*time.Millisecond)
	_, n, ok := DecodePageHeader(page)
	if !ok || !bytes.Equal(page[PageHeaderLen:PageHeaderLen+n], msg) {
		t.Fatal("secondary destaged data wrong")
	}
}

func TestShadowCounterReachesPrimary(t *testing.T) {
	env := sim.NewEnv(1)
	prim, _ := cluster(env)
	env.Go("host", func(p *sim.Proc) {
		prim.CMB().MemWrite(0, make([]byte, 256))
	})
	env.RunUntil(50 * time.Millisecond)
	if prim.Transport().Shadow(0) != 256 {
		t.Fatalf("shadow counter = %d, want 256", prim.Transport().Shadow(0))
	}
}

func TestEffectiveCreditPerScheme(t *testing.T) {
	env := sim.NewEnv(1)
	prim, sec := cluster(env)
	env.Go("host", func(p *sim.Proc) {
		prim.CMB().MemWrite(0, make([]byte, 128))
	})
	// Run just long enough for the local persist but before NTB delivery:
	// local=128, shadow=0.
	env.RunUntil(800 * time.Nanosecond)
	if prim.CMB().Ring().Frontier() != 128 {
		t.Skipf("timing assumption broken: local frontier %d", prim.CMB().Ring().Frontier())
	}
	prim.Transport().SetScheme(core.Eager)
	if got := prim.EffectiveCredit(); got != 0 {
		t.Errorf("eager credit = %d before replication, want 0", got)
	}
	prim.Transport().SetScheme(core.Lazy)
	if got := prim.EffectiveCredit(); got != 128 {
		t.Errorf("lazy credit = %d, want 128 (local)", got)
	}
	env.RunUntil(50 * time.Millisecond)
	prim.Transport().SetScheme(core.Eager)
	if got := prim.EffectiveCredit(); got != 128 {
		t.Errorf("eager credit = %d after replication, want 128", got)
	}
	prim.Transport().SetScheme(core.Chain)
	if got := prim.EffectiveCredit(); got != 128 {
		t.Errorf("chain credit = %d, want tail shadow 128", got)
	}
	_ = sec
}

// TestHostQueuesZeroIsOnePair: a device built with HostQueues 0 is a
// one-pair device. The same blocking-Submit workload (writes, reads, a
// flush, admin commands, beside fast-side traffic) on HostQueues 0 and on
// HostQueues 1 dispatches the same events and records the same trace.
func TestHostQueuesZeroIsOnePair(t *testing.T) {
	run := func(pairs int) (int64, uint64) {
		env := sim.NewEnv(7)
		defer env.Close()
		cfg := testConfig("hq")
		cfg.HostQueues = pairs
		host := pcie.NewHostMemory(1 << 20)
		d := New(env, cfg, host)
		tr := d.EnableTracing(1 << 12)
		drv := d.HostDriver()
		bs := int64(d.BlockSize())
		base := d.FTL().LogicalPages() / 2
		check := func(what string, c nvme.Completion) {
			if c.Status != nvme.StatusSuccess {
				t.Errorf("HostQueues %d: %s: status %d", pairs, what, c.Status)
			}
		}
		for w := int64(0); w < 3; w++ {
			w := w
			env.Go("host", func(p *sim.Proc) {
				for i := int64(0); i < 8; i++ {
					lba, prp := base+w*16+i, (w*16+i)*bs
					host.Bytes()[prp] = byte(w*16 + i + 1)
					check("write", drv.Submit(p, nvme.Command{Opcode: nvme.OpWrite, LBA: lba, Blocks: 1, PRP: prp}))
					if i%3 == 2 {
						check("read", drv.Submit(p, nvme.Command{Opcode: nvme.OpRead, LBA: lba - 1, Blocks: 1, PRP: (48 + w) * bs}))
					}
				}
				check("mode", drv.Submit(p, nvme.Command{Opcode: nvme.OpXSetTransportMode, CDW: int64(core.Standalone)}))
			})
		}
		env.Go("fast", func(p *sim.Proc) {
			for i := int64(0); i < 6; i++ {
				d.CMB().MemWrite(i*300, make([]byte, 300))
				p.Sleep(40 * time.Microsecond)
			}
			check("policy", drv.Submit(p, nvme.Command{Opcode: nvme.OpXSetDestagePolicy, CDW: int64(sched.DestagePriority)}))
			check("flush", drv.Submit(p, nvme.Command{Opcode: nvme.OpFlush}))
		})
		env.RunUntil(20 * time.Millisecond)
		return env.Events(), tr.Fingerprint()
	}
	ev0, fp0 := run(0)
	ev1, fp1 := run(1)
	if ev0 != ev1 || fp0 != fp1 {
		t.Fatalf("HostQueues 0: %d events, trace %016x; HostQueues 1: %d events, trace %016x", ev0, fp0, ev1, fp1)
	}
}

func TestAdminCommands(t *testing.T) {
	env := sim.NewEnv(1)
	d := newDevice(env, "a")
	driver := d.HostDriver()
	env.Go("host", func(p *sim.Proc) {
		c := driver.Submit(p, nvme.Command{Opcode: nvme.OpXSetDestagePolicy, CDW: int64(sched.ConventionalPriority)})
		if c.Status != nvme.StatusSuccess {
			t.Errorf("set policy: %v", c.Status)
		}
		if d.Scheduler().Policy() != sched.ConventionalPriority {
			t.Error("policy not applied")
		}
		c = driver.Submit(p, nvme.Command{Opcode: nvme.OpXSetTransportMode, CDW: int64(core.Primary)})
		if c.Status != nvme.StatusSuccess {
			t.Errorf("set mode: %v", c.Status)
		}
		if d.statusRegister()&core.StatusTransportUp == 0 {
			t.Errorf("status register = %#x, want transport up", d.statusRegister())
		}
		c = driver.Submit(p, nvme.Command{Opcode: nvme.OpXSetTransportMode, CDW: 99})
		if c.Status != nvme.StatusInvalid {
			t.Errorf("bogus mode accepted: %v", c.Status)
		}
	})
	env.RunUntil(100 * time.Millisecond)
}

func TestAdvancedAllocPinsDestaging(t *testing.T) {
	env := sim.NewEnv(1)
	d := newDevice(env, "a")
	var a Allocation
	env.Go("host", func(p *sim.Proc) {
		var err error
		a, err = d.CMB().Alloc(256)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		// Fill the allocation out of order: second half first.
		d.CMB().MemWrite(a.Start+128, make([]byte, 128))
		d.CMB().MemWrite(a.Start, make([]byte, 128))
	})
	env.RunUntil(50 * time.Millisecond)
	if d.Destage().DestagedStream() != 0 {
		t.Fatalf("destaged %d bytes while allocation active", d.Destage().DestagedStream())
	}
	if d.CMB().Ring().Frontier() != 256 {
		t.Fatalf("frontier = %d, want 256", d.CMB().Ring().Frontier())
	}
	env.Go("free", func(p *sim.Proc) {
		if !d.CMB().Free(a.Start) {
			t.Error("free failed")
		}
	})
	env.RunUntil(env.Now() + 50*time.Millisecond)
	if d.Destage().DestagedStream() != 256 {
		t.Fatalf("destaged %d after free, want 256", d.Destage().DestagedStream())
	}
}

// TestAdminFreeTakesAllocStart drives the advanced API's vendor commands
// through Device.Admin: the start OpXAlloc returns is the one handle
// OpXFree takes, it frees once, and an offset inside the allocation names
// nothing.
func TestAdminFreeTakesAllocStart(t *testing.T) {
	env := sim.NewEnv(1)
	d := newDevice(env, "a")
	env.Go("host", func(p *sim.Proc) {
		c := d.Admin(p, nvme.Command{Opcode: nvme.OpXAlloc, CDW: 256})
		if c.Status != nvme.StatusSuccess {
			t.Errorf("alloc: status %v", c.Status)
			return
		}
		start := c.Value
		if got := d.CMB().destageFloor(); got != start {
			t.Errorf("destage floor = %d with the allocation active, want its start %d", got, start)
		}
		if c := d.Admin(p, nvme.Command{Opcode: nvme.OpXFree, CDW: start + 128}); c.Status != nvme.StatusInvalid {
			t.Errorf("free inside the allocation: status %v, want StatusInvalid", c.Status)
		}
		if c := d.Admin(p, nvme.Command{Opcode: nvme.OpXFree, CDW: start}); c.Status != nvme.StatusSuccess {
			t.Errorf("free of the returned start: status %v, want StatusSuccess", c.Status)
		}
		if n := len(d.CMB().allocs); n != 0 {
			t.Errorf("%d allocations active after the free, want 0", n)
		}
		if c := d.Admin(p, nvme.Command{Opcode: nvme.OpXFree, CDW: start}); c.Status != nvme.StatusInvalid {
			t.Errorf("second free of the start: status %v, want StatusInvalid", c.Status)
		}
	})
	env.RunUntil(time.Millisecond)
}

func TestStallDetection(t *testing.T) {
	env := sim.NewEnv(1)
	prim := newDevice(env, "prim")
	sec := newDevice(env, "sec")
	toSec := ntb.NewDefaultBridgeTo(env, env, "p->s")
	toPrim := ntb.NewDefaultBridgeTo(env, env, "s->p")
	// Peer added but the secondary never enters Secondary mode: it will
	// receive data but never report its counter.
	prim.Transport().AddPeer(sec, toSec, toPrim)
	prim.Transport().setMode(core.Primary)
	env.Go("host", func(p *sim.Proc) {
		prim.CMB().MemWrite(0, make([]byte, 64))
	})
	env.RunUntil(50 * time.Millisecond) // > StallTimeout of 10ms
	if prim.statusRegister()&core.StatusReplicaStalled == 0 {
		t.Fatal("stalled replica not flagged in status register")
	}
	if prim.Transport().stalled() != true {
		t.Fatal("stalled() = false")
	}
}

func TestLBARingWrapsAround(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := testConfig("a")
	cfg.DestageLBAs = 4 // tiny ring: wraps quickly
	d := New(env, cfg, pcie.NewHostMemory(1<<20))
	payload := d.cfg.Geometry.PageSize - PageHeaderLen
	env.Go("host", func(p *sim.Proc) {
		for i := 0; i < 6; i++ { // 6 pages through a 4-slot ring
			d.CMB().MemWrite(int64(i*payload), make([]byte, payload))
			p.Sleep(2 * time.Millisecond)
		}
	})
	env.RunUntil(time.Second)
	if total := d.Stats().Destage.Pages; total != 6 {
		t.Fatalf("pages destaged = %d, want 6", total)
	}
	if d.Destage().TailLBA() != 6 {
		t.Fatalf("tail slot = %d", d.Destage().TailLBA())
	}
	// Slot 0 and 1 were overwritten by pages 4 and 5.
	var page []byte
	env.Go("verify", func(p *sim.Proc) { page, _ = d.FTL().Read(p, 0) })
	env.RunUntil(env.Now() + 50*time.Millisecond)
	off, _, ok := DecodePageHeader(page)
	if !ok || off != int64(4*payload) {
		t.Fatalf("wrapped slot 0 holds stream offset %d, want %d", off, 4*payload)
	}
}

func TestBackingClassesBothWork(t *testing.T) {
	for _, spec := range []pm.Spec{pm.SRAMSpec, pm.DRAMSpec} {
		env := sim.NewEnv(1)
		cfg := testConfig("x")
		cfg.Backing = spec
		cfg.CMBSize = 64 << 10
		d := New(env, cfg, pcie.NewHostMemory(1<<20))
		env.Go("host", func(p *sim.Proc) {
			d.CMB().MemWrite(0, make([]byte, 1024))
		})
		env.RunUntil(50 * time.Millisecond)
		if d.CMB().Ring().Frontier() != 1024 {
			t.Fatalf("%v backing: frontier %d", spec.Class, d.CMB().Ring().Frontier())
		}
	}
}

// TestLatencyBoundArmsOneTimerPerDeadline feeds a caught-up fast side n
// 64-byte chunks (less than one page in total), then nothing; the host tails
// the log, reading the destaged-stream register after each chunk, so the
// padded page is due at its age deadline. Every persisted chunk finds the
// same deadline — the first chunk's persist, which is when the carve point
// became eligible, plus the latency bound — and nothing for the destage
// loop to do before it: the loop must not be resumed once until then (the
// persist callback arms the timer the loop would have armed), it must carve
// the padded page at exactly that instant, and the quiet stretch before it
// must cost the same few events whatever n was — one timer per deadline,
// not one per chunk.
func TestLatencyBoundArmsOneTimerPerDeadline(t *testing.T) {
	few, many := quietChunksToCarve(t, 10, true), quietChunksToCarve(t, 200, true)
	if few != many || few > 4 {
		t.Fatalf("events from the last persist to the carve: %d after 10 chunks, %d after 200; want the same small count", few, many)
	}
}

// TestQuietLogArmsOneQuietTimer is the reader-less twin: nobody reads the
// destage registers, so the padded page waits until the stream has been
// quiet for the bound — the last chunk's persist plus the bound. Before it
// the loop wakes once, at the age deadline, to arm the one quiet-deadline
// timer; the carve lands at exactly the quiet deadline, and the quiet
// stretch costs the same few events for 10 chunks as for 200.
func TestQuietLogArmsOneQuietTimer(t *testing.T) {
	few, many := quietChunksToCarve(t, 10, false), quietChunksToCarve(t, 200, false)
	if few != many || few > 4 {
		t.Fatalf("events from the last persist to the carve: %d after 10 chunks, %d after 200; want the same small count", few, many)
	}
}

// TestLateReaderGetsItsPageAtOnce: a log trickles one 64-byte line every
// 50 µs — less than a page per bound — with no reader, so nothing is padded
// past the age deadline. A tail reader that then reads the destaged-stream
// register finds the page due and the loop woken in the same instant,
// without waiting for the next line or the quiet deadline.
func TestLateReaderGetsItsPageAtOnce(t *testing.T) {
	const (
		line   = 64
		gap    = 50 * time.Microsecond
		readAt = 600 * time.Microsecond
	)
	env := sim.NewEnv(1)
	defer env.Close()
	d := newDevice(env, "a") // a 200 µs bound
	env.Go("host", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			d.CMB().MemWrite(int64(i*line), make([]byte, line))
			p.Sleep(gap)
		}
	})
	env.Go("late-reader", func(p *sim.Proc) {
		p.SleepUntil(readAt + gap/2) // between two lines
		d.readRegister(d.fs, core.RegDestagedStream)
	})
	env.RunUntil(readAt + gap/2 - 1)
	if got := d.Destage().carved; got != 0 {
		t.Fatalf("%d bytes carved before the reader came, with lines still arriving", got)
	}
	env.RunUntil(readAt + gap/2)
	if got := d.Destage().carved; got == 0 {
		t.Fatal("no page carved at the reader's register read")
	}
}

// quietChunksToCarve feeds n chunks 500 ns apart, checks that the padded
// page is carved at its deadline and not a nanosecond before, with no
// wasted wake-up of the destage loop, and returns the events dispatched
// from the end of the feed to the carve. With reader set the host reads
// RegDestagedStream after each chunk and the deadline is the age deadline;
// without, it is the quiet deadline.
func quietChunksToCarve(t *testing.T, n int, reader bool) int64 {
	t.Helper()
	const (
		chunk = 64
		gap   = 500 * time.Nanosecond
	)
	env := sim.NewEnv(1)
	defer env.Close()
	cfg := testConfig("a")
	cfg.Geometry.PageSize = 16384
	d := New(env, cfg, pcie.NewHostMemory(1<<20))
	tr := d.EnableTracing(1 << 10)
	env.RunUntil(0) // every device process has started and parked
	settled := env.Switches()
	env.Go("host", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			d.CMB().MemWrite(int64(i*chunk), make([]byte, chunk))
			if reader {
				d.readRegister(d.fs, core.RegDestagedStream)
			}
			p.Sleep(gap)
		}
	})
	env.RunUntil(time.Duration(n)*gap + 10*time.Microsecond)
	if got := d.CMB().Ring().Frontier(); got != int64(n*chunk) {
		t.Fatalf("n=%d: frontier %d after the feed, want %d", n, got, n*chunk)
	}
	_, _, busOps := d.CMB().bank.Bus().Stats()
	quiet := env.Events()
	since := d.Destage().eligibleSince()
	if since <= 0 || since >= gap {
		t.Fatalf("n=%d: eligibleSince = %v, want the first chunk's persist, inside (0, %v)", n, since, gap)
	}
	deadline, wakes := since+cfg.DestageLatencyBound, 0
	if !reader {
		persists := tr.Filter(obs.CMBPersist)
		deadline, wakes = persists[len(persists)-1].At+cfg.DestageLatencyBound, 1 // the age timer's
	}

	// The carve starts by reading the ring over the backing bus, so
	// the bus's transfer count moves at the instant the loop decides.
	env.RunUntil(deadline - 1)
	if _, _, ops := d.CMB().bank.Bus().Stats(); ops != busOps {
		t.Fatalf("n=%d: page carved before its deadline (%v)", n, deadline)
	}
	// The host was dispatched once and woke from n sleeps; nothing else in
	// the device is a process that should have run, but for the loop's
	// wake-up at the age deadline when there is no reader.
	if got, want := env.Switches()-settled, int64(n+1+wakes); got != want {
		t.Errorf("n=%d: %d process switches before the deadline, want %d; the destage loop woke with nothing to do", n, got, want)
	}
	env.RunUntil(deadline)
	if _, _, ops := d.CMB().bank.Bus().Stats(); ops != busOps+1 {
		t.Fatalf("n=%d: no carve at the deadline (%v)", n, deadline)
	}
	events := env.Events() - quiet

	env.RunUntil(deadline + 10*time.Millisecond)
	if ds := d.Stats().Destage; ds.Pages != 1 || ds.PartialPages != 1 {
		t.Fatalf("n=%d: pages = (%d,%d), want one padded page", n, ds.Pages, ds.PartialPages)
	}
	if got := d.Destage().DestagedStream(); got != int64(n*chunk) {
		t.Fatalf("n=%d: destaged stream = %d, want %d", n, got, n*chunk)
	}
	return events
}

// TestTrickleDoesNotPadAPagePerLine is the thin-log regression: 64-byte
// lines 10 µs apart under a 1 ms bound and a 600 µs flash program. Once the
// bound trips, the tripping page is in flight for most of the next
// millisecond; lines persisting meanwhile are young and must wait for their
// own deadline, not each be padded into a page because the ring's head is
// old. One page per bound interval, plus the last line's.
func TestTrickleDoesNotPadAPagePerLine(t *testing.T) {
	const (
		lines = 500
		line  = 64
		gap   = 10 * time.Microsecond
		bound = time.Millisecond
	)
	env := sim.NewEnv(1)
	defer env.Close()
	cfg := DefaultConfig("thin")
	// A 16 KB page: 6.4 KB arrive per bound interval, so no page ever fills.
	cfg.Geometry = nand.Geometry{Channels: 4, WaysPerChan: 4, BlocksPerDie: 64, PagesPerBlock: 64, PageSize: 16 << 10}
	cfg.DestageLatencyBound = bound
	d := New(env, cfg, pcie.NewHostMemory(1<<20))
	env.Go("host", func(p *sim.Proc) {
		for i := 0; i < lines; i++ {
			d.CMB().MemWrite(int64(i*line), make([]byte, line))
			p.Sleep(gap)
		}
	})
	env.RunUntil(lines*gap + 2*bound + 10*time.Millisecond)
	if got := d.Destage().DestagedStream(); got != lines*line {
		t.Fatalf("destaged %d bytes, want %d", got, lines*line)
	}
	span := time.Duration(lines) * gap
	want := int64((span+bound-1)/bound) + 1
	st := d.Stats().Destage
	if st.Pages > want {
		t.Fatalf("%d pages for %d lines over %v under a %v bound, want at most %d", st.Pages, lines, span, bound, want)
	}
	// The bill adds up: what the pages hold is the stream plus the padding.
	if st.PayloadBytes != lines*line || st.PayloadBytes+st.FillerBytes != st.Pages*int64(d.Destage().maxPayload()) {
		t.Fatalf("payload %d + filler %d over %d pages of %d", st.PayloadBytes, st.FillerBytes, st.Pages, d.Destage().maxPayload())
	}
}

// TestCarveReadFailureBacksOff injects the one failure carveOne can meet —
// the ring no longer holds the bytes at the carve point — and checks that
// the destage loop counts it and yields: it used to return to the loop at
// the same instant, find the same bytes carvable, and fail again forever.
func TestCarveReadFailureBacksOff(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	d := newDevice(env, "a")
	env.Go("host", func(p *sim.Proc) {
		d.CMB().MemWrite(0, make([]byte, 256))
		p.Sleep(10 * time.Microsecond)
		// Behind the destage module's back: the head passes the carve point.
		if err := d.CMB().Ring().Release(128); err != nil {
			t.Errorf("release: %v", err)
		}
	})
	const horizon = 5 * time.Millisecond
	env.RunUntil(horizon)
	if env.Now() != horizon {
		t.Fatalf("virtual time stopped at %v", env.Now())
	}
	errs := d.Stats().Destage.Errors
	if errs == 0 {
		t.Fatal("failed ring read not counted")
	}
	// Bound 200 µs, then one attempt per back-off.
	if most := int64(horizon/destageRetryBackoff) + 1; errs > most {
		t.Fatalf("%d failed reads in %v, want at most one per %v back-off", errs, horizon, destageRetryBackoff)
	}
	if total := d.Stats().Destage.Pages; total != 0 {
		t.Fatalf("%d pages written from a ring that no longer holds the bytes", total)
	}
}

// TestDestagePipelineStaysBounded streams into the CMB fast enough that
// the destage pipeline wraps many times without draining, and checks that
// the in-flight queue's backing array stays within twice the pipeline's
// depth: a queue reused only once drained would grow with every page
// carved while another was still in flight.
func TestDestagePipelineStaysBounded(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	d := newDevice(env, "a")
	const chunk = 512
	env.Go("host", func(p *sim.Proc) {
		for off := int64(0); ; off += chunk {
			for d.CMB().Ring().Free() < 2*chunk {
				p.Sleep(time.Microsecond)
			}
			d.CMB().MemWrite(off, make([]byte, chunk))
			p.Sleep(1500 * time.Nanosecond)
		}
	})
	m := d.Destage()
	limit := 2 * m.maxInflight()
	for step := 0; step < 200; step++ {
		env.RunUntil(env.Now() + 100*time.Microsecond)
		if c := backingCap(&m.inflight); c > limit {
			t.Fatalf("after %d pages the in-flight queue holds %d slots, want at most %d", d.Stats().Destage.Pages, c, limit)
		}
	}
	if pages := d.Stats().Destage.Pages; pages < int64(50*m.maxInflight()) {
		t.Fatalf("only %d pages destaged: the pipeline did not wrap often enough to test its bound", pages)
	}
}

// backingCap reads the capacity of a fifo.Queue's backing array, which the
// queue does not export.
func backingCap(q any) int { return reflect.ValueOf(q).Elem().FieldByName("q").Cap() }

// TestDestagePageAllocations: once the pipeline's entries and page workers
// have grown, a page's whole destage — carve, program on a recycled page
// worker, in-order retire — allocates nothing. Each round writes one
// page's payload into the CMB and waits until it is destaged. The ring
// is short and the array small, so the warm-up wraps the array and the
// collector recycles erased flash pages for the measured programs.
func TestDestagePageAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own schedule")
	}
	env := sim.NewEnv(1)
	defer env.Close()
	cfg := testConfig("a")
	cfg.Geometry.BlocksPerDie = 8
	cfg.DestageLBAs = 64
	d := New(env, cfg, pcie.NewHostMemory(1<<20))
	m := d.Destage()
	payload := make([]byte, m.maxPayload())
	kick := env.NewSignal()
	var off int64
	destaged := func() bool { return m.DestagedStream() == off }
	env.Go("host", func(p *sim.Proc) {
		for {
			p.Wait(kick)
			d.CMB().MemWrite(off, payload)
			off += int64(len(payload))
			p.WaitFor(m.Advanced, destaged)
		}
	})
	round := func() {
		kick.Broadcast()
		env.RunUntil(env.Now() + time.Millisecond)
	}
	env.RunUntil(time.Millisecond)
	for i := 0; i < 4*cfg.Geometry.TotalPages(); i++ { // warm-up: free lists, queues, workers and erased pages grow here
		round()
	}
	pages, erases := d.Stats().Destage.Pages, d.FTL().Stats().GCErases
	n := testing.AllocsPerRun(200, round)
	if got := d.Stats().Destage.Pages - pages; got != 201 || !destaged() {
		t.Fatalf("measured rounds destaged %d pages, want 201", got)
	}
	if d.FTL().Stats().GCErases == erases {
		t.Fatal("the collector erased no block while the rounds were measured")
	}
	if n != 0 {
		t.Errorf("a destaged page allocates %v objects, want 0", n)
	}
}

// TestIdleDeviceFootprint pins what building one idle device of the
// paper's setup allocates, per CMB backing: its memory follows the bytes
// it holds, not its rated capacity. The fast-side ring holds no chunk
// before its first write, the NAND page table is 4 bytes a page with no
// page buffer until a program, and the FTL's maps are 4 bytes an entry.
func TestIdleDeviceFootprint(t *testing.T) {
	const limit = 16 << 20
	for _, backing := range []pm.Spec{pm.SRAMSpec, pm.DRAMSpec} {
		env := sim.NewEnv(1)
		host := pcie.NewHostMemory(1 << 20)
		cfg := DefaultConfig("idle")
		cfg.Backing = backing
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d := New(env, cfg, host)
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; got > limit {
			t.Errorf("%v-backed device: New allocated %.1f MiB, want at most %d MiB",
				backing.Class, float64(got)/(1<<20), limit>>20)
		} else {
			t.Logf("%v-backed device: New allocated %.1f MiB", backing.Class, float64(got)/(1<<20))
		}
		runtime.KeepAlive(d)
		env.Close()
	}
}
