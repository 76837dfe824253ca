package main

import (
	"fmt"
	"time"

	"xssd/internal/btree"
	"xssd/internal/sim"
	"xssd/internal/villars"
)

// The correctness check every workload ends with: cut the power, let the
// device drain its fast side on supercapacitor energy, then read what is
// on flash back through the FTL — the host interface is dead, exactly as
// after a real power loss — and recover from those bytes alone.

// drainBudget bounds the virtual time the supercapacitor drain may take;
// postMortemBudget bounds one post-mortem process (a read-back of the whole
// destage ring, a checkpoint recovery).
const (
	drainBudget      = 400 * time.Millisecond
	postMortemBudget = 5 * time.Second
)

// runProc runs fn as a process on env and drives r until it returns.
func runProc(r runner, env *sim.Env, name string, fn func(p *sim.Proc)) error {
	done := false
	env.Go(name, func(p *sim.Proc) {
		defer func() { done = true }()
		fn(p)
	})
	deadline := r.now() + postMortemBudget
	for !done && r.now() < deadline {
		r.runUntil(r.now() + 5*time.Millisecond)
	}
	if !done {
		return fmt.Errorf("%s did not finish within %v of virtual time", name, postMortemBudget)
	}
	return nil
}

// powerOff cuts power to devs and runs until each has drained.
func powerOff(r runner, devs ...*villars.Device) error {
	for _, d := range devs {
		d.InjectPowerLoss()
	}
	deadline := r.now() + drainBudget
	for _, d := range devs {
		for !d.Drained() && r.now() < deadline {
			r.runUntil(r.now() + time.Millisecond)
		}
		if !d.Drained() {
			return fmt.Errorf("%s did not drain its fast side within %v of power loss", d.Name(), drainBudget)
		}
	}
	return nil
}

// flashRing reads d's destage LBA range back, slot by slot, and returns the
// contiguous piece of the log stream it holds: from stream offset start
// (0 unless the stream has wrapped the ring) to the last destaged byte.
func flashRing(r runner, d *villars.Device) (start int64, stream []byte, err error) {
	base, count := d.Destage().LBARing()
	tail := d.Destage().TailLBA()
	first := tail - count
	if first < 0 {
		first = 0
	}
	stream = make([]byte, 0, (tail-first)*int64(d.BlockSize()))
	var rerr error
	err = runProc(r, d.Env(), d.Name()+" flash read-back", func(p *sim.Proc) {
		for slot := first; slot < tail; slot++ {
			page, err := d.FTL().Read(p, base+slot%count)
			if err != nil {
				rerr = fmt.Errorf("%s: read destage slot %d: %w", d.Name(), slot, err)
				return
			}
			off, n, ok := villars.DecodePageHeader(page)
			if !ok {
				rerr = fmt.Errorf("%s: destage slot %d holds no destage page", d.Name(), slot)
				return
			}
			if slot == first {
				start = off
			}
			if want := start + int64(len(stream)); off != want {
				rerr = fmt.Errorf("%s: destage slot %d at stream offset %d, want %d", d.Name(), slot, off, want)
				return
			}
			stream = append(stream, page[villars.PageHeaderLen:villars.PageHeaderLen+n]...)
		}
	})
	if err == nil {
		err = rerr
	}
	return start, stream, err
}

// flashPrefix returns the whole log stream d holds on flash, which must
// reach the acknowledged LSN acked. The workloads that replay the log size
// the ring for their whole run, so a wrapped ring is an error.
func flashPrefix(r runner, d *villars.Device, acked int64) ([]byte, error) {
	start, stream, err := flashRing(r, d)
	switch {
	case err != nil:
		return nil, err
	case start != 0:
		return nil, fmt.Errorf("%s: the stream wrapped the destage ring (oldest byte on flash is %d)", d.Name(), start)
	case int64(len(stream)) < acked:
		return nil, fmt.Errorf("%s: acknowledged LSN %d is beyond the %d bytes recovered from flash", d.Name(), acked, len(stream))
	}
	return stream, nil
}

// ftlStore serves a page store's slots from post-mortem FTL reads, so
// checkpoint recovery loads pages the way flashPrefix loads the log.
// Recovery never writes.
type ftlStore struct {
	dev   *villars.Device
	base  int64
	slots int64
}

func (s *ftlStore) PageSize() int { return s.dev.BlockSize() }
func (s *ftlStore) Slots() int64  { return s.slots }

func (s *ftlStore) Read(p *sim.Proc, slot int64, buf []byte) error {
	if slot < 0 || slot >= s.slots {
		return fmt.Errorf("%w: slot %d out of range %d", btree.ErrStore, slot, s.slots)
	}
	page, err := s.dev.FTL().Read(p, s.base+slot)
	if err != nil {
		return fmt.Errorf("%w: ftl read slot %d: %w", btree.ErrStore, slot, err)
	}
	copy(buf, page)
	return nil
}

func (s *ftlStore) Write(*sim.Proc, int64, []byte) error {
	return fmt.Errorf("%w: post-mortem store is read-only", btree.ErrStore)
}

func (s *ftlStore) WriteBatch(*sim.Proc, []int64, [][]byte) error {
	return fmt.Errorf("%w: post-mortem store is read-only", btree.ErrStore)
}

func (s *ftlStore) Sync(*sim.Proc) error { return nil }
