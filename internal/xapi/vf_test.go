package xapi

import (
	"bytes"
	"testing"
	"time"

	"xssd/internal/sim"
	"xssd/internal/villars"
)

// Virtual functions (paper §7.2): independent fast sides on one device,
// each with its own ring, credit counter, and destage range — also the
// §7.1 answer to multi-threaded writers needing private counters.

func TestVFIndependentStreams(t *testing.T) {
	env := sim.NewEnv(1)
	dev, _ := testDevice(env, "pf")
	vf1, err := dev.CreateVF("tenant1", 32<<10, 4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	vf2, err := dev.CreateVF("tenant2", 32<<10, 4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	msg1 := bytes.Repeat([]byte{0xA1}, 1500)
	msg2 := bytes.Repeat([]byte{0xB2}, 900)
	env.Go("tenant1", func(p *sim.Proc) {
		l := Open(p, vf1, Options{})
		l.XPwrite(p, msg1)
		if err := l.XFsync(p); err != nil {
			t.Errorf("vf1 fsync: %v", err)
		}
	})
	env.Go("tenant2", func(p *sim.Proc) {
		l := Open(p, vf2, Options{})
		l.XPwrite(p, msg2)
		if err := l.XFsync(p); err != nil {
			t.Errorf("vf2 fsync: %v", err)
		}
	})
	env.RunUntil(100 * time.Millisecond)
	// Each VF's counter reflects only its own stream.
	if got := vf1.Stats().CMB.Credit; got != int64(len(msg1)) {
		t.Fatalf("vf1 frontier = %d, want %d", got, len(msg1))
	}
	if got := vf2.Stats().CMB.Credit; got != int64(len(msg2)) {
		t.Fatalf("vf2 frontier = %d, want %d", got, len(msg2))
	}
	// And the primary fast side is untouched.
	if dev.CMB().Ring().Frontier() != 0 {
		t.Fatal("primary fast side saw VF traffic")
	}
}

func TestVFDestageRangesDisjoint(t *testing.T) {
	env := sim.NewEnv(1)
	dev, _ := testDevice(env, "pf")
	vf1, _ := dev.CreateVF("a", 32<<10, 4096, 64)
	vf2, _ := dev.CreateVF("b", 32<<10, 4096, 64)
	d1, d2 := vf1.Stats().Destage, vf2.Stats().Destage
	b1, c1 := d1.BaseLBA, d1.LBACount
	b2, c2 := d2.BaseLBA, d2.LBACount
	pb, pc := dev.Destage().LBARing()
	if b1 < pb+pc {
		t.Fatalf("vf1 ring [%d,%d) overlaps primary [%d,%d)", b1, b1+c1, pb, pb+pc)
	}
	if b2 < b1+c1 {
		t.Fatalf("vf2 ring [%d,%d) overlaps vf1 [%d,%d)", b2, b2+c2, b1, b1+c1)
	}
}

func TestVFTailReadIsolation(t *testing.T) {
	env := sim.NewEnv(1)
	dev, host := testDevice(env, "pf")
	vf, err := dev.CreateVF("tenant", 32<<10, 4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	vfMsg := []byte("virtual function private log data!")
	pfMsg := []byte("physical function log")
	env.Go("vf-writer", func(p *sim.Proc) {
		l := Open(p, vf, Options{})
		l.XPwrite(p, vfMsg)
		l.XFsync(p)
	})
	env.Go("pf-writer", func(p *sim.Proc) {
		l := Open(p, dev, Options{})
		l.XPwrite(p, pfMsg)
		l.XFsync(p)
	})
	var gotVF, gotPF []byte
	env.Go("vf-reader", func(p *sim.Proc) {
		l := Open(p, vf, Options{HostMem: host, Scratch: 1 << 18})
		buf := make([]byte, len(vfMsg))
		if _, err := l.XPread(p, buf); err != nil {
			t.Errorf("vf pread: %v", err)
			return
		}
		gotVF = buf
	})
	env.Go("pf-reader", func(p *sim.Proc) {
		l := Open(p, dev, Options{HostMem: host, Scratch: 1 << 19})
		buf := make([]byte, len(pfMsg))
		if _, err := l.XPread(p, buf); err != nil {
			t.Errorf("pf pread: %v", err)
			return
		}
		gotPF = buf
	})
	env.RunUntil(time.Second)
	if !bytes.Equal(gotVF, vfMsg) {
		t.Fatalf("vf tail read %q, want %q", gotVF, vfMsg)
	}
	if !bytes.Equal(gotPF, pfMsg) {
		t.Fatalf("pf tail read %q, want %q", gotPF, pfMsg)
	}
}

func TestVFCrashDrainsAllFastSides(t *testing.T) {
	env := sim.NewEnv(1)
	dev, _ := testDevice(env, "pf")
	vf, _ := dev.CreateVF("tenant", 32<<10, 4096, 64)
	env.Go("writers", func(p *sim.Proc) {
		dev.CMB().MemWrite(0, make([]byte, 600))
		Open(p, vf, Options{}).XPwrite(p, make([]byte, 800))
		p.Sleep(10 * time.Microsecond)
		dev.InjectPowerLoss()
	})
	env.RunUntil(300 * time.Millisecond)
	if !dev.Drained() {
		t.Fatal("device (incl. VFs) did not drain")
	}
	if dev.Destage().DestagedStream() != 600 {
		t.Fatalf("primary destaged %d, want 600", dev.Destage().DestagedStream())
	}
	if got := vf.Stats().Destage.Stream; got != 800 {
		t.Fatalf("vf destaged %d, want 800", got)
	}
}

func TestVFValidation(t *testing.T) {
	env := sim.NewEnv(1)
	dev, _ := testDevice(env, "pf")
	if _, err := dev.CreateVF("bad", 0, 4096, 64); err == nil {
		t.Fatal("zero CMB size accepted")
	}
	if _, err := dev.CreateVF("huge", 32<<10, 4096, 1<<40); err == nil {
		t.Fatal("oversized destage ring accepted")
	}
	vf, err := dev.CreateVF("ok", 32<<10, 4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	if vf.Name() != "pf/ok" {
		t.Fatalf("VF name = %q", vf.Name())
	}
	if vf.BlockSize() != dev.BlockSize() {
		t.Fatal("VF block size differs from device")
	}
}

// Per-writer VFs solve the single-credit-counter problem of §7.1: two
// concurrent writers on separate VFs never interfere through flow
// control.
func TestVFPerWriterCountersNoInterference(t *testing.T) {
	env := sim.NewEnv(3)
	dev, _ := testDevice(env, "pf")
	var vfs []*villars.VirtualFunction
	for i := 0; i < 4; i++ {
		vf, err := dev.CreateVF(string(rune('a'+i)), 16<<10, 2048, 32)
		if err != nil {
			t.Fatal(err)
		}
		vfs = append(vfs, vf)
	}
	const perWriter = 20 << 10 // larger than each VF queue: forces pacing
	done := 0
	for _, vf := range vfs {
		vf := vf
		env.Go("writer", func(p *sim.Proc) {
			l := Open(p, vf, Options{})
			l.XPwrite(p, make([]byte, perWriter))
			if err := l.XFsync(p); err != nil {
				t.Errorf("%s: %v", vf.Name(), err)
				return
			}
			done++
		})
	}
	env.RunUntil(time.Second)
	if done != 4 {
		t.Fatalf("only %d/4 writers completed", done)
	}
	for _, vf := range vfs {
		if got := vf.Stats().CMB.Credit; got != perWriter {
			t.Fatalf("%s frontier = %d", vf.Name(), got)
		}
	}
}
