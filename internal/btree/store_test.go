package btree

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"xssd/internal/pcie"
	"xssd/internal/sim"
	"xssd/internal/villars"
)

// TestDeviceStoreWithoutProcIsAnError: a device command spends virtual
// time and so needs the calling process; forgetting it is a caller's
// mistake every PageStore method can report, not a reason to take the
// simulation down.
func TestDeviceStoreWithoutProcIsAnError(t *testing.T) {
	_, s := newDeviceStore(t, 16)
	page := make([]byte, s.PageSize())
	for name, call := range map[string]func() error{
		"Read":       func() error { return s.Read(nil, 0, page) },
		"ReadBatch":  func() error { return s.ReadBatch(nil, []int64{0, 1}, [][]byte{page, page}) },
		"WriteBatch": func() error { return s.WriteBatch(nil, []int64{0, 1}, [][]byte{page, page}) },
		"Sync":       func() error { return s.Sync(nil) },
	} {
		if err := call(); !errors.Is(err, ErrStore) {
			t.Errorf("%s(nil proc) = %v, want an ErrStore", name, err)
		}
	}
	if s.busy {
		t.Error("a refused call left the store's gate taken")
	}
}

// TestFailedWriteBatchWritesNothing: a batch with one slot past the end
// fails with ErrStoreFull and leaves every slot as it was, on both
// stores. The bad slot sits last in the device store's first window, so
// a check made per slot inside the submit loop would already have sent
// the three writes before it.
func TestFailedWriteBatchWritesNothing(t *testing.T) {
	const slots = 16
	env, ds := newDeviceStore(t, slots)
	for _, s := range []PageStore{NewMemStore(ds.PageSize(), slots), ds} {
		image := func(b byte) []byte { return bytes.Repeat([]byte{b}, s.PageSize()) }
		var got []byte
		var werr error
		done := false
		env.Go("writer", func(p *sim.Proc) {
			defer func() { done = true }()
			if werr = s.WriteBatch(p, []int64{0, 1, 2}, [][]byte{image(1), image(2), image(3)}); werr != nil {
				return
			}
			werr = s.WriteBatch(p, []int64{0, 1, 2, slots}, [][]byte{image(9), image(9), image(9), image(9)})
			p.Sleep(10 * time.Millisecond) // let anything sent land
			buf := make([]byte, s.PageSize())
			for slot := int64(0); slot < 3; slot++ {
				if err := s.Read(p, slot, buf); err != nil {
					t.Errorf("%T: read slot %d: %v", s, slot, err)
					return
				}
				got = append(got, buf[0])
			}
		})
		env.RunUntil(env.Now() + time.Second)
		if !done {
			t.Fatalf("%T: writer did not finish", s)
		}
		if !errors.Is(werr, ErrStoreFull) || !errors.Is(werr, ErrStore) {
			t.Errorf("%T: batch past the last slot = %v, want ErrStoreFull wrapping ErrStore", s, werr)
		}
		if !bytes.Equal(got, []byte{1, 2, 3}) {
			t.Errorf("%T: slots 0-2 hold images %v after the failed batch, want [1 2 3]", s, got)
		}
	}
}

// newDeviceStore builds a DeviceStore of slots page slots on a fresh
// device of its own Env, with DMA staging at the top of host memory.
func newDeviceStore(t *testing.T, slots int64) (*sim.Env, *DeviceStore) {
	t.Helper()
	env := sim.NewEnv(1)
	t.Cleanup(env.Close)
	const hostMem = 1 << 20
	dev := villars.New(env, villars.DefaultConfig("dev"), pcie.NewHostMemory(hostMem))
	base, err := dev.AllocLBARange(slots)
	if err != nil {
		t.Fatal(err)
	}
	return env, NewDeviceStore(dev, base, slots, hostMem-DeviceScratchSize(dev.BlockSize()))
}

// TestDeviceStoreAllocs pins what a DeviceStore call allocates once the
// device's queues and free lists have grown: nothing for a Read or a
// 2-slot ReadBatch, and for a 9-slot WriteBatch (two windows) only the
// nine page buffers the flash array keeps for what it programs, no token
// slice per window.
func TestDeviceStoreAllocs(t *testing.T) {
	env, s := newDeviceStore(t, 16)
	ps := s.PageSize()
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, ps) }
	slots9 := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8}
	images := make([][]byte, len(slots9))
	for i := range images {
		images[i] = page(byte(i + 1))
	}
	buf, bufs := page(0), [][]byte{page(0), page(0)}
	var op func(p *sim.Proc) error
	var opErr error
	kick := env.NewSignal()
	env.Go("host", func(p *sim.Proc) {
		for {
			p.Wait(kick)
			opErr = op(p)
		}
	})
	env.Run()
	round := func() {
		kick.Broadcast()
		env.Run()
	}
	for _, c := range []struct {
		name string
		op   func(p *sim.Proc) error
		max  float64
	}{
		{"WriteBatch of 9", func(p *sim.Proc) error { return s.WriteBatch(p, slots9, images) }, 9},
		{"Read", func(p *sim.Proc) error { return s.Read(p, 3, buf) }, 0},
		{"ReadBatch of 2", func(p *sim.Proc) error { return s.ReadBatch(p, []int64{4, 5}, bufs) }, 0},
	} {
		op = c.op
		for range 50 { // warm-up: queues, maps and free lists grow here
			round()
		}
		n := testing.AllocsPerRun(200, round)
		if opErr != nil {
			t.Fatalf("%s: %v", c.name, opErr)
		}
		if n > c.max {
			t.Errorf("%s allocates %v objects, want at most %v", c.name, n, c.max)
		}
	}
	if buf[0] != 4 || bufs[0][0] != 5 || bufs[1][0] != 6 {
		t.Errorf("reads returned images %d, %d, %d, want 4, 5, 6", buf[0], bufs[0][0], bufs[1][0])
	}
}

// TestDeviceStoreReadIsABatchOfOne: on twin stores holding the same image, a
// Read and a one-slot ReadBatch of that slot dispatch the same number of
// events, end at the same virtual time and fill the same bytes.
func TestDeviceStoreReadIsABatchOfOne(t *testing.T) {
	type result struct {
		events int64
		now    time.Duration
		buf    []byte
	}
	run := func(read func(s *DeviceStore, p *sim.Proc, buf []byte) error) result {
		env, s := newDeviceStore(t, 16)
		buf := make([]byte, s.PageSize())
		env.Go("reader", func(p *sim.Proc) {
			if err := s.WriteBatch(p, []int64{5}, [][]byte{bytes.Repeat([]byte{7}, s.PageSize())}); err != nil {
				t.Error(err)
				return
			}
			if err := read(s, p, buf); err != nil {
				t.Error(err)
			}
		})
		env.Run()
		return result{env.Events(), env.Now(), buf}
	}
	one := run(func(s *DeviceStore, p *sim.Proc, buf []byte) error { return s.Read(p, 5, buf) })
	batch := run(func(s *DeviceStore, p *sim.Proc, buf []byte) error { return s.ReadBatch(p, []int64{5}, [][]byte{buf}) })
	if one.events != batch.events || one.now != batch.now {
		t.Errorf("Read: %d events ending at %v; ReadBatch of one: %d events ending at %v", one.events, one.now, batch.events, batch.now)
	}
	if !bytes.Equal(one.buf, batch.buf) || one.buf[0] != 7 {
		t.Errorf("Read filled %d..., ReadBatch of one %d..., want the same image of 7s", one.buf[0], batch.buf[0])
	}
}
