package btree

import (
	"errors"
	"testing"

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
