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
	// Read fills buf (PageSize bytes) with slot's image. A store that
	// yields fills buf after its last yield: the pager reads every miss
	// into one shared buffer and decodes it as soon as Read returns.
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
	if err := checkBatch("write", ErrStoreFull, slots, images, s.cap, s.pageSize); err != nil {
		return err
	}
	for i, slot := range slots {
		s.slots[slot] = append([]byte(nil), images[i]...)
	}
	return nil
}

// checkBatch validates a whole batch before any command of it goes out:
// every slot inside [0, n), reported as outOfRange, and every page buffer
// pageSize bytes. op names the batch's direction in the message.
func checkBatch(op string, outOfRange error, slots []int64, pages [][]byte, n int64, pageSize int) error {
	for i, slot := range slots {
		if slot < 0 || slot >= n {
			return fmt.Errorf("%w: %s slot %d out of range %d", outOfRange, op, slot, n)
		}
		if len(pages[i]) != pageSize {
			return fmt.Errorf("%w: %s of %d bytes, page size %d", ErrStore, op, len(pages[i]), pageSize)
		}
	}
	return nil
}

// Sync implements PageStore (memory is always durable).
func (s *MemStore) Sync(*sim.Proc) error { return nil }

// deviceBatchWindow bounds how many page commands a DeviceStore batch
// (checkpoint writes, a commit's cold-leaf reads) keeps in flight, and
// equals the number of DMA staging slots its scratch region is carved
// into.
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
// A DeviceStore serializes its commands on an internal gate: its DMA
// staging is shared, so two processes' commands must not overlap.
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

// Read implements PageStore: a batch of one. Its slices live in the call,
// not on the store: a second process can be inside Read while the first
// is parked on the gate.
func (s *DeviceStore) Read(p *sim.Proc, slot int64, buf []byte) error {
	return s.batch(p, nvme.OpRead, []int64{slot}, [][]byte{buf})
}

// ReadBatch fills bufs[i] with the image at slots[i], reading pages on
// different dies in parallel. A failed read fails the batch.
func (s *DeviceStore) ReadBatch(p *sim.Proc, slots []int64, bufs [][]byte) error {
	return s.batch(p, nvme.OpRead, slots, bufs)
}

// WriteBatch implements PageStore: a checkpoint's page walk overlaps
// firmware and flash-program latency instead of paying it per page.
func (s *DeviceStore) WriteBatch(p *sim.Proc, slots []int64, images [][]byte) error {
	return s.batch(p, nvme.OpWrite, slots, images)
}

// batch is the store's one command loop: op (OpRead or OpWrite) of
// slots[i] to or from pages[i], up to deviceBatchWindow commands in flight
// per gate hold, each through its own staging slot. A window stages its
// writes, submits, waits on every command, copies its reads out only if
// none failed (bufs of a failed window keep their bytes), and releases the
// gate. The whole batch is validated first, so a bad one (ErrStoreFull for
// a write past the last slot) sends nothing: a check in the submit loop
// would return with the window's earlier commands in flight on staging
// slots the next command reuses.
func (s *DeviceStore) batch(p *sim.Proc, op nvme.Opcode, slots []int64, pages [][]byte) error {
	name, outOfRange := "read", ErrStore
	if op == nvme.OpWrite {
		name, outOfRange = "write", ErrStoreFull
	}
	ps := int64(s.PageSize())
	if err := checkBatch(name, outOfRange, slots, pages, s.slots, int(ps)); err != nil {
		return err
	}
	mem := s.dev.HostMemory().Bytes()
	var toks [deviceBatchWindow]nvme.Token
	for start := 0; start < len(slots); start += deviceBatchWindow {
		end := min(start+deviceBatchWindow, len(slots))
		// The gate is taken per window, not per batch: tree fetches from
		// other processes interleave between a checkpoint's windows,
		// keeping its walk fuzzy for readers too.
		if err := s.acquire(p); err != nil {
			return err
		}
		for i := start; i < end; i++ {
			stage := s.scratch + int64(i-start)*ps
			if op == nvme.OpWrite {
				copy(mem[stage:stage+ps], pages[i])
			}
			toks[i-start] = s.driver.SubmitAsync(0, nvme.Command{Opcode: op, LBA: s.base + slots[i], Blocks: 1, PRP: stage})
		}
		var err error
		for i := start; i < end; i++ {
			if c := s.driver.Wait(p, toks[i-start]); c.Status != nvme.StatusSuccess && err == nil {
				err = fmt.Errorf("%w: NVMe %s slot %d (lba %d): status %d", ErrStore, name, slots[i], s.base+slots[i], c.Status)
			}
		}
		if err == nil && op == nvme.OpRead {
			for i := start; i < end; i++ {
				copy(pages[i], mem[s.scratch+int64(i-start)*ps:])
			}
		}
		s.release()
		if err != nil {
			return err
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
	if _, _, _, _, errs := s.dev.ControllerStats(); errs != s.lastErrs {
		delta := errs - s.lastErrs
		s.lastErrs = errs
		return fmt.Errorf("%w: %d controller errors since last sync (lost background writes)", ErrStore, delta)
	}
	return nil
}
