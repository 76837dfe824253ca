package xapi

import (
	"bytes"
	"testing"
	"time"

	"xssd/internal/core"
	"xssd/internal/nand"
	"xssd/internal/ntb"
	"xssd/internal/nvme"
	"xssd/internal/pcie"
	"xssd/internal/sim"
	"xssd/internal/villars"
)

func testDevice(env *sim.Env, name string) (*villars.Device, *pcie.HostMemory) {
	cfg := villars.DefaultConfig(name)
	cfg.Geometry = nand.Geometry{Channels: 2, WaysPerChan: 2, BlocksPerDie: 32, PagesPerBlock: 32, PageSize: 2048}
	cfg.Timing = nand.Timing{TRead: 5 * time.Microsecond, TProg: 20 * time.Microsecond, TErase: 100 * time.Microsecond, BusRate: 1e9}
	cfg.QueueSize = 4096
	cfg.CMBSize = 64 << 10
	cfg.DestageLatencyBound = 100 * time.Microsecond
	host := pcie.NewHostMemory(1 << 20)
	return villars.New(env, cfg, host), host
}

func TestXPwriteXFsyncRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	dev, host := testDevice(env, "a")
	var synced bool
	env.Go("db", func(p *sim.Proc) {
		l := Open(p, dev, Options{HostMem: host, Scratch: 1 << 19})
		off := l.XPwrite(p, []byte("commit record"))
		if off != 0 {
			t.Errorf("first write offset = %d", off)
		}
		if err := l.XFsync(p); err != nil {
			t.Errorf("fsync: %v", err)
		}
		synced = true
		if dev.CMB().Ring().Frontier() != 13 {
			t.Errorf("frontier = %d after fsync", dev.CMB().Ring().Frontier())
		}
	})
	env.RunUntil(50 * time.Millisecond)
	if !synced {
		t.Fatal("fsync never returned")
	}
}

func TestXPwriteLargerThanQueuePaced(t *testing.T) {
	env := sim.NewEnv(1)
	dev, host := testDevice(env, "a")
	payload := make([]byte, 20000) // 5x the 4 KB queue
	for i := range payload {
		payload[i] = byte(i)
	}
	env.Go("db", func(p *sim.Proc) {
		l := Open(p, dev, Options{HostMem: host})
		l.XPwrite(p, payload)
		if err := l.XFsync(p); err != nil {
			t.Errorf("fsync: %v", err)
		}
		if l.CreditReads() == 0 {
			t.Error("large write never consulted the credit counter")
		}
	})
	env.RunUntil(500 * time.Millisecond)
	if dev.Stats().CMB.Overruns != 0 {
		t.Fatalf("flow control failed: %d overruns", dev.Stats().CMB.Overruns)
	}
	if dev.Stats().CMB.BytesIn != 20000 {
		t.Fatalf("device received %d bytes, want 20000", dev.Stats().CMB.BytesIn)
	}
}

func TestCheckEveryChunkReadsMoreCredits(t *testing.T) {
	run := func(s CreditStrategy) int64 {
		env := sim.NewEnv(1)
		dev, host := testDevice(env, "a")
		var reads int64
		env.Go("db", func(p *sim.Proc) {
			l := Open(p, dev, Options{Strategy: s, HostMem: host})
			for i := 0; i < 20; i++ {
				l.XPwrite(p, make([]byte, 512))
			}
			l.XFsync(p)
			reads = l.CreditReads()
		})
		env.RunUntil(500 * time.Millisecond)
		return reads
	}
	lazy, eager := run(UseAllCredits), run(CheckEveryChunk)
	if eager <= lazy {
		t.Fatalf("CheckEveryChunk reads (%d) should exceed UseAllCredits (%d)", eager, lazy)
	}
}

func TestXPreadTailFollowsDestagedLog(t *testing.T) {
	env := sim.NewEnv(1)
	dev, host := testDevice(env, "a")
	msg := []byte("0123456789abcdefghijklmnopqrstuvwxyz")
	var got []byte
	env.Go("writer", func(p *sim.Proc) {
		l := Open(p, dev, Options{HostMem: host, Scratch: 1 << 18})
		l.XPwrite(p, msg)
		l.XFsync(p)
	})
	env.Go("reader", func(p *sim.Proc) {
		l := Open(p, dev, Options{HostMem: host, Scratch: 1 << 19})
		buf := make([]byte, len(msg))
		off, err := l.XPread(p, buf)
		if err != nil {
			t.Errorf("pread: %v", err)
			return
		}
		if off != 0 {
			t.Errorf("pread offset = %d", off)
		}
		got = buf
	})
	env.RunUntil(time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatalf("tail read %q, want %q", got, msg)
	}
}

func TestXPreadSpansMultiplePages(t *testing.T) {
	env := sim.NewEnv(1)
	dev, host := testDevice(env, "a")
	pageLoad := 2048 - villars.PageHeaderLen
	msg := make([]byte, pageLoad*2+100) // will destage as 3 pages
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	var got []byte
	env.Go("writer", func(p *sim.Proc) {
		l := Open(p, dev, Options{HostMem: host, Scratch: 1 << 18})
		l.XPwrite(p, msg)
		l.XFsync(p)
	})
	env.Go("reader", func(p *sim.Proc) {
		l := Open(p, dev, Options{HostMem: host, Scratch: 1 << 19})
		buf := make([]byte, len(msg))
		if _, err := l.XPread(p, buf); err != nil {
			t.Errorf("pread: %v", err)
			return
		}
		got = buf
	})
	env.RunUntil(time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("multi-page tail read corrupted")
	}
}

func TestXPreadBlocksUntilDataDestages(t *testing.T) {
	env := sim.NewEnv(1)
	dev, host := testDevice(env, "a")
	var readDone time.Duration
	env.Go("reader", func(p *sim.Proc) {
		l := Open(p, dev, Options{HostMem: host, Scratch: 1 << 19})
		buf := make([]byte, 8)
		if _, err := l.XPread(p, buf); err != nil {
			t.Errorf("pread: %v", err)
		}
		readDone = p.Now()
	})
	env.Go("writer", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond) // reader must wait at least this long
		l := Open(p, dev, Options{HostMem: host, Scratch: 1 << 18})
		l.XPwrite(p, []byte("deferred"))
		l.XFsync(p)
	})
	env.RunUntil(time.Second)
	if readDone < 5*time.Millisecond {
		t.Fatalf("reader returned at %v, before the data existed", readDone)
	}
}

func TestAllocWriteFreeDestages(t *testing.T) {
	env := sim.NewEnv(1)
	dev, host := testDevice(env, "a")
	env.Go("db", func(p *sim.Proc) {
		l := Open(p, dev, Options{HostMem: host, Scratch: 1 << 19})
		start, err := l.XAlloc(p, 300)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		// Fill back to front, as parallel log writers would.
		for i, off := range []int64{start + 200, start + 100, start} {
			if err := l.XWriteAt(p, off, bytes.Repeat([]byte{byte(3 - i)}, 100)); err != nil {
				t.Errorf("write at %d: %v", off, err)
			}
		}
		p.Sleep(time.Millisecond)
		if dev.Destage().DestagedStream() != 0 {
			t.Error("destaged before free")
		}
		if err := l.XFree(p, start); err != nil {
			t.Errorf("free: %v", err)
		}
	})
	env.RunUntil(time.Second)
	if dev.Destage().DestagedStream() != 300 {
		t.Fatalf("destaged %d bytes after free, want 300", dev.Destage().DestagedStream())
	}
}

func TestFsyncUnderEagerReplicationWaitsForSecondary(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short mode")
	}
	env := sim.NewEnv(1)
	prim, hostP := testDevice(env, "prim")
	sec, _ := testDevice(env, "sec")
	toSec := ntb.NewDefaultBridgeTo(env, env, "p-s")
	toPrim := ntb.NewDefaultBridgeTo(env, env, "s-p")
	prim.Transport().AddPeer(sec, toSec, toPrim)
	prim.Transport().SetScheme(core.Eager)
	// Set transport roles through the vendor admin command path.
	setRole := func(d *villars.Device, mode core.TransportMode) {
		env.Go("role", func(p *sim.Proc) {
			l := Open(p, d, Options{})
			c := l.driver.Submit(p, nvme.Command{Opcode: nvme.OpXSetTransportMode, CDW: int64(mode)})
			if c.Status != nvme.StatusSuccess {
				t.Errorf("set mode failed: %+v", c)
			}
		})
	}
	setRole(sec, core.Secondary)
	setRole(prim, core.Primary)
	env.RunUntil(time.Millisecond)

	var fsyncAt time.Duration
	env.Go("db", func(p *sim.Proc) {
		l := Open(p, prim, Options{HostMem: hostP})
		l.XPwrite(p, make([]byte, 1024))
		if err := l.XFsync(p); err != nil {
			t.Errorf("fsync: %v", err)
		}
		fsyncAt = p.Now()
	})
	env.RunUntil(time.Second)
	if fsyncAt == 0 {
		t.Fatal("fsync never completed")
	}
	if prim.Transport().Shadow(0) < 1024 {
		t.Fatalf("fsync returned but shadow counter = %d", prim.Transport().Shadow(0))
	}
}

func TestXSubmitTokenLifecycle(t *testing.T) {
	env := sim.NewEnv(1)
	dev, host := testDevice(env, "a")
	var done bool
	env.Go("db", func(p *sim.Proc) {
		l := Open(p, dev, Options{HostMem: host, Scratch: 1 << 19})
		// Submit three records without waiting; tokens are the stream
		// offsets after each write, so they are strictly increasing.
		t1 := l.XSubmit(p, []byte("record-1"))
		t2 := l.XSubmit(p, []byte("record-2"))
		t3 := l.XSubmit(p, []byte("record-3"))
		if !(t1 < t2 && t2 < t3) {
			t.Errorf("tokens not increasing: %d %d %d", t1, t2, t3)
		}
		if t3 != Token(l.Written()) || t3 != l.XToken() {
			t.Errorf("last token %d, Written %d, XToken %d", t3, l.Written(), l.XToken())
		}
		// Wait on the LAST token: total order means every earlier token
		// must then poll durable too.
		if err := l.XWait(p, t3); err != nil {
			t.Errorf("XWait: %v", err)
		}
		for _, tok := range []Token{t1, t2, t3} {
			if !l.XPoll(p, tok) {
				t.Errorf("token %d not durable after waiting on %d", tok, t3)
			}
		}
		done = true
	})
	env.RunUntil(50 * time.Millisecond)
	if !done {
		t.Fatal("XWait never returned")
	}
}

func TestXPollBeforeDurabilityIsFalseThenTrue(t *testing.T) {
	env := sim.NewEnv(1)
	dev, host := testDevice(env, "a")
	var sawPending, sawDurable bool
	env.Go("db", func(p *sim.Proc) {
		l := Open(p, dev, Options{HostMem: host, Scratch: 1 << 19})
		tok := l.XSubmit(p, []byte("async record"))
		// Immediately after the MMIO copy the device cannot have advanced
		// the credit to cover it (the fast path still costs ring time).
		sawPending = !l.XPoll(p, tok)
		for !l.XPoll(p, tok) {
			p.Sleep(time.Microsecond)
		}
		sawDurable = true
		if err := l.XWait(p, tok); err != nil { // already durable: no-op wait
			t.Errorf("XWait on durable token: %v", err)
		}
	})
	env.RunUntil(50 * time.Millisecond)
	if !sawPending {
		t.Error("XPoll reported durable before the device could have acked")
	}
	if !sawDurable {
		t.Fatal("token never became durable")
	}
}

func TestSubmitInterleavesWithBlockingCalls(t *testing.T) {
	// The async tokens layer under the blocking calls: mixing XSubmit,
	// XPwrite, and XFsync on one handle keeps one totally-ordered stream.
	env := sim.NewEnv(1)
	dev, host := testDevice(env, "a")
	var done bool
	env.Go("db", func(p *sim.Proc) {
		l := Open(p, dev, Options{HostMem: host, Scratch: 1 << 19})
		tok := l.XSubmit(p, []byte("async"))
		l.XPwrite(p, []byte("blocking"))
		if err := l.XFsync(p); err != nil {
			t.Errorf("fsync: %v", err)
		}
		// Fsync covered the whole stream, so the earlier token is durable.
		if !l.XPoll(p, tok) {
			t.Error("token not durable after a later XFsync")
		}
		if got := dev.CMB().Ring().Frontier(); got != int64(len("async")+len("blocking")) {
			t.Errorf("frontier = %d", got)
		}
		done = true
	})
	env.RunUntil(50 * time.Millisecond)
	if !done {
		t.Fatal("run did not finish")
	}
}
