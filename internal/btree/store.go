package btree

import (
	"errors"
	"fmt"

	"xssd/internal/nvme"
	"xssd/internal/sim"
	"xssd/internal/villars"
)

// ErrStore wraps every backing-store failure (NVMe error status, slot out
// of range, silent controller write loss). Match with errors.Is.
var ErrStore = errors.New("btree: page store")

// ErrStoreFull reports a write to a slot past the store's last one: the
// tree has grown more page ids than the store has shadow pairs for. It
// wraps ErrStore, and unlike the other store errors a retry cannot succeed.
var ErrStoreFull = fmt.Errorf("%w: full", ErrStore)

// PageStore is the backing medium the Pager reads and writes page slots
// against. Slot s holds one page image; the shadow-slot scheme above maps
// page id p to slots 2p and 2p+1. Read and WriteBatch take the calling
// simulated process for stores that spend virtual time (DeviceStore);
// MemStore accepts a nil proc.
type PageStore interface {
	// PageSize returns the fixed image size in bytes.
	PageSize() int
	// Read fills buf (PageSize bytes) with slot's image.
	Read(p *sim.Proc, slot int64, buf []byte) error
	// WriteBatch persists images[i] (PageSize bytes) at slots[i]. Stores
	// with an async command interface pipeline the writes; the call
	// returns when all are acknowledged.
	WriteBatch(p *sim.Proc, slots []int64, images [][]byte) error
	// Sync makes every acknowledged write durable on the medium and
	// fails if any earlier write was silently lost.
	Sync(p *sim.Proc) error
}

// MemStore is an in-memory PageStore for oracles and tests: reads and
// writes are immediate and spend no virtual time, so a nil proc is fine.
type MemStore struct {
	pageSize int
	slots    map[int64][]byte
	cap      int64
}

// NewMemStore creates a memory store of cap slots of pageSize bytes.
func NewMemStore(pageSize int, cap int64) *MemStore {
	return &MemStore{pageSize: pageSize, slots: map[int64][]byte{}, cap: cap}
}

// PageSize implements PageStore.
func (s *MemStore) PageSize() int { return s.pageSize }

// Read implements PageStore.
func (s *MemStore) Read(_ *sim.Proc, slot int64, buf []byte) error {
	img, ok := s.slots[slot]
	if !ok {
		return fmt.Errorf("%w: read of never-written slot %d", ErrStore, slot)
	}
	copy(buf, img)
	return nil
}

// WriteBatch implements PageStore. A bad batch writes nothing.
func (s *MemStore) WriteBatch(_ *sim.Proc, slots []int64, images [][]byte) error {
	if err := checkBatch(slots, images, s.cap, s.pageSize); err != nil {
		return err
	}
	for i, slot := range slots {
		s.slots[slot] = append([]byte(nil), images[i]...)
	}
	return nil
}

// checkBatch validates a whole write batch before any of it is written:
// every slot inside [0, slots) and every image pageSize bytes.
func checkBatch(slots []int64, images [][]byte, n int64, pageSize int) error {
	for i, slot := range slots {
		if slot < 0 || slot >= n {
			return fmt.Errorf("%w: write slot %d out of range %d", ErrStoreFull, slot, n)
		}
		if len(images[i]) != pageSize {
			return fmt.Errorf("%w: write of %d bytes, page size %d", ErrStore, len(images[i]), pageSize)
		}
	}
	return nil
}

// Sync implements PageStore (memory is always durable).
func (s *MemStore) Sync(*sim.Proc) error { return nil }

// deviceBatchWindow bounds how many checkpoint page writes a DeviceStore
// keeps in flight, and equals the number of DMA staging slots its scratch
// region is carved into.
const deviceBatchWindow = 8

// DeviceScratchSize returns how many bytes of host memory a DeviceStore
// over pageSize-byte pages needs for DMA staging (deviceBatchWindow page
// slots) — what the caller must reserve at the scratch offset it passes
// to NewDeviceStore.
func DeviceScratchSize(pageSize int) int64 {
	return int64(deviceBatchWindow) * int64(pageSize)
}

// DeviceStore is a PageStore on the conventional side of a Villars
// device: page slots map 1:1 onto an LBA range reserved above the
// destage rings (Device.AllocLBARange), commands travel through the
// normal NVMe host driver, and Sync issues a Flush and then checks the
// controller's error counter so a background cache write the device
// dropped on the floor fails the checkpoint instead of corrupting it.
//
// A DeviceStore serializes its commands: host-memory DMA staging is
// shared, so two simulated processes must not overlap operations. The
// internal gate keeps callers honest without burdening them.
type DeviceStore struct {
	dev     *villars.Device
	driver  *nvme.Driver
	scratch int64 // DMA staging base in host memory: deviceBatchWindow page slots
	base    int64 // first LBA of the slot range
	slots   int64

	busy     bool
	free     *sim.Signal
	lastErrs int64 // controller error count at the last successful Sync
}

// NewDeviceStore maps slots page slots starting at LBA base of dev, with
// DMA staging at byte offset scratch of the device's host memory (the
// caller reserves deviceBatchWindow pages there).
func NewDeviceStore(dev *villars.Device, base, slots, scratch int64) *DeviceStore {
	s := &DeviceStore{
		dev:     dev,
		driver:  dev.HostDriver(),
		scratch: scratch,
		base:    base,
		slots:   slots,
		free:    dev.Env().NewSignal(),
	}
	_, _, _, _, s.lastErrs = dev.ControllerStats()
	return s
}

// PageSize implements PageStore: one page per device block.
func (s *DeviceStore) PageSize() int { return s.dev.BlockSize() }

// acquire takes the gate. Device commands spend virtual time, so unlike
// MemStore a DeviceStore needs the calling process: without one the call
// fails with ErrStore and the gate is not taken.
func (s *DeviceStore) acquire(p *sim.Proc) error {
	if p == nil {
		return fmt.Errorf("%w: device operation without a process context", ErrStore)
	}
	p.WaitFor(s.free, func() bool { return !s.busy })
	s.busy = true
	return nil
}

func (s *DeviceStore) release() {
	s.busy = false
	s.free.Broadcast()
}

// Read implements PageStore: one NVMe read DMAed into the staging area.
func (s *DeviceStore) Read(p *sim.Proc, slot int64, buf []byte) error {
	if slot < 0 || slot >= s.slots {
		return fmt.Errorf("%w: slot %d out of range %d", ErrStore, slot, s.slots)
	}
	if err := s.acquire(p); err != nil {
		return err
	}
	defer s.release()
	c := s.driver.Submit(p, nvme.Command{Opcode: nvme.OpRead, LBA: s.base + slot, Blocks: 1, PRP: s.scratch})
	if c.Status != nvme.StatusSuccess {
		return fmt.Errorf("%w: NVMe read slot %d (lba %d): status %d", ErrStore, slot, s.base+slot, c.Status)
	}
	copy(buf, s.dev.HostMemory().Bytes()[s.scratch:s.scratch+int64(s.PageSize())])
	return nil
}

// WriteBatch implements PageStore: up to deviceBatchWindow writes ride
// the submission queue together, each from its own staging slot, so a
// checkpoint's page walk overlaps firmware and flash-program latency
// instead of paying it per page.
//
// The whole batch is validated before the first command goes out, so a
// bad batch writes nothing. A check inside the submit loop would leave
// the window's earlier writes in flight when it returned: their staging
// slots are reused by the next command while the device may still be
// reading them, and a page id's slot can receive another page's image.
func (s *DeviceStore) WriteBatch(p *sim.Proc, slots []int64, images [][]byte) error {
	ps := int64(s.PageSize())
	if err := checkBatch(slots, images, s.slots, int(ps)); err != nil {
		return err
	}
	for start := 0; start < len(slots); start += deviceBatchWindow {
		end := start + deviceBatchWindow
		if end > len(slots) {
			end = len(slots)
		}
		// The gate is taken per window, not per batch: tree fetches from
		// other processes interleave between windows, keeping the
		// checkpoint walk fuzzy for readers too.
		if err := s.acquire(p); err != nil {
			return err
		}
		toks := make([]nvme.Token, 0, end-start)
		for i := start; i < end; i++ {
			stage := s.scratch + int64(i-start)*ps
			copy(s.dev.HostMemory().Bytes()[stage:], images[i])
			toks = append(toks, s.driver.SubmitAsync(0, nvme.Command{
				Opcode: nvme.OpWrite, LBA: s.base + slots[i], Blocks: 1, PRP: stage,
			}))
		}
		var werr error
		for i, tok := range toks {
			if c := s.driver.Wait(p, tok); c.Status != nvme.StatusSuccess && werr == nil {
				werr = fmt.Errorf("%w: NVMe write slot %d: status %d", ErrStore, slots[start+i], c.Status)
			}
		}
		s.release()
		if werr != nil {
			return werr
		}
	}
	return nil
}

// Sync implements PageStore: flush the controller's write cache, then
// compare its error counter against the last sync — the background cache
// writes only count errors, they never fail the original command, so the
// delta is the one signal that an acknowledged page write was lost.
func (s *DeviceStore) Sync(p *sim.Proc) error {
	if err := s.acquire(p); err != nil {
		return err
	}
	defer s.release()
	c := s.driver.Submit(p, nvme.Command{Opcode: nvme.OpFlush})
	if c.Status != nvme.StatusSuccess {
		return fmt.Errorf("%w: NVMe flush: status %d", ErrStore, c.Status)
	}
	_, _, _, _, errs := s.dev.ControllerStats()
	if errs != s.lastErrs {
		delta := errs - s.lastErrs
		s.lastErrs = errs
		return fmt.Errorf("%w: %d controller errors since last sync (lost background writes)", ErrStore, delta)
	}
	return nil
}
