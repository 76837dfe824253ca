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
	env := sim.NewEnv(1)
	const hostMem = 1 << 20
	dev := villars.New(env, villars.DefaultConfig("dev"), pcie.NewHostMemory(hostMem))
	base, err := dev.AllocLBARange(16)
	if err != nil {
		t.Fatal(err)
	}
	s := NewDeviceStore(dev, base, 16, hostMem-DeviceScratchSize(dev.BlockSize()))
	page := make([]byte, s.PageSize())
	for name, call := range map[string]func() error{
		"Read":       func() error { return s.Read(nil, 0, page) },
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
	env := sim.NewEnv(1)
	t.Cleanup(env.Close)
	const hostMem = 1 << 20
	dev := villars.New(env, villars.DefaultConfig("dev"), pcie.NewHostMemory(hostMem))
	base, err := dev.AllocLBARange(slots)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDeviceStore(dev, base, slots, hostMem-DeviceScratchSize(dev.BlockSize()))
	for _, s := range []PageStore{NewMemStore(dev.BlockSize(), slots), ds} {
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
