package hic

import (
	"testing"
	"time"

	"xssd/internal/nvme"
	"xssd/internal/sim"
)

// TestCommandRangeChecked: a block command whose data buffer runs outside
// host memory, or whose blocks run past the namespace, completes
// StatusInvalid and counts an error, before any DMA or acknowledgement —
// it neither ends the simulation nor is acknowledged and then lost.
func TestCommandRangeChecked(t *testing.T) {
	r := newRig(nil)
	bs := r.ctrl.BlockSize()
	mem := int64(len(r.host.Bytes()))
	last := r.ctrl.ftl.LogicalPages()
	cases := []struct {
		name string
		cmd  nvme.Command
	}{
		{"write whose buffer runs past host memory", nvme.Command{Opcode: nvme.OpWrite, LBA: 1, Blocks: 2, PRP: mem - int64(bs)}},
		{"read into a negative host address", nvme.Command{Opcode: nvme.OpRead, LBA: 0, Blocks: 1, PRP: -4096}},
		{"write past the last logical block", nvme.Command{Opcode: nvme.OpWrite, LBA: last, Blocks: 1, PRP: 0}},
		{"write that straddles the last logical block", nvme.Command{Opcode: nvme.OpWrite, LBA: last - 1, Blocks: 2, PRP: 0}},
	}
	got := make([]nvme.Status, len(cases))
	r.env.Go("host", func(p *sim.Proc) {
		// LBA 0 holds data, so the bad read would reach its DMA.
		if c := r.driver.Submit(p, nvme.Command{Opcode: nvme.OpWrite, LBA: 0, Blocks: 1, PRP: 0}); c.Status != nvme.StatusSuccess {
			t.Errorf("setup write: status %v", c.Status)
		}
		for i, tc := range cases {
			got[i] = r.driver.Submit(p, tc.cmd).Status
		}
		if c := r.driver.Submit(p, nvme.Command{Opcode: nvme.OpFlush}); c.Status != nvme.StatusSuccess {
			t.Errorf("flush: status %v", c.Status)
		}
	})
	r.env.RunUntil(time.Second)
	for i, tc := range cases {
		if got[i] != nvme.StatusInvalid {
			t.Errorf("%s: status %v, want StatusInvalid", tc.name, got[i])
		}
	}
	if _, _, _, _, errs := r.ctrl.Stats(); errs != int64(len(cases)) {
		t.Errorf("errors = %d, want %d (one per refused command, none from the background)", errs, len(cases))
	}
}

// TestConventionalReadAllocations: a one-block read through the whole
// conventional path — driver, SQ, controller, FTL, scheduler, flash, CQ —
// allocates nothing: the flash read fills the command worker's scratch.
func TestConventionalReadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own schedule")
	}
	r := newRig(nil)
	defer r.env.Close()
	kick := r.env.NewSignal()
	reads := 0
	var status nvme.Status
	r.env.Go("host", func(p *sim.Proc) {
		if c := r.driver.Submit(p, nvme.Command{Opcode: nvme.OpWrite, LBA: 7, Blocks: 1, PRP: 0}); c.Status != nvme.StatusSuccess {
			t.Errorf("write: status %v", c.Status)
		}
		r.driver.Submit(p, nvme.Command{Opcode: nvme.OpFlush})
		for {
			p.Wait(kick)
			status = r.driver.Submit(p, nvme.Command{Opcode: nvme.OpRead, LBA: 7, Blocks: 1, PRP: 4096}).Status
			reads++
		}
	})
	round := func() {
		kick.Broadcast()
		r.env.Run()
	}
	r.env.Run()
	for i := 0; i < 100; i++ { // warm-up: queues, maps and free lists grow here
		round()
	}
	if len(r.ctrl.cacheData) != 0 {
		t.Fatal("the block is still in the Data Buffer: reads would not reach flash")
	}
	n := testing.AllocsPerRun(500, round)
	if reads != 601 || status != nvme.StatusSuccess {
		t.Fatalf("%d reads completed, last status %v", reads, status)
	}
	if rd, _, _, _, _ := r.ctrl.Stats(); rd != 601 {
		t.Fatalf("controller executed %d reads, want 601", rd)
	}
	if n != 0 {
		t.Errorf("a read command allocates %v objects, want 0", n)
	}
}

// TestConventionalWriteAllocations: a one-block write command — its DMA
// into the Data Buffer, its acknowledgement and the background program of
// the block — allocates nothing once the write-back records and workers
// have grown: the record carries the block and a recycled worker programs
// it. The writes cycle over one flash block's worth of LBAs, so the
// collector erases wholly stale blocks and never migrates.
func TestConventionalWriteAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own schedule")
	}
	r := newRig(nil)
	defer r.env.Close()
	kick := r.env.NewSignal()
	writes := int64(0)
	var status nvme.Status
	r.env.Go("host", func(p *sim.Proc) {
		for {
			p.Wait(kick)
			lba := writes % 16
			status = r.driver.Submit(p, nvme.Command{Opcode: nvme.OpWrite, LBA: lba, Blocks: 1, PRP: 0}).Status
			writes++
		}
	})
	round := func() {
		kick.Broadcast()
		r.env.Run()
	}
	r.env.Run()
	for i := 0; i < 4000; i++ { // warm-up: free lists, maps and erased pages grow here
		round()
	}
	erases0 := r.ctrl.ftl.Stats().GCErases
	n := testing.AllocsPerRun(500, round)
	if status != nvme.StatusSuccess || r.ctrl.inflight != 0 || len(r.ctrl.cacheData) != 0 {
		t.Fatalf("last status %v, %d blocks still in the Data Buffer", status, r.ctrl.inflight)
	}
	if st := r.ctrl.ftl.Stats(); st.GCErases == erases0 || st.GCPages != 0 {
		t.Fatalf("measured writes ran %d erases and %d migrations, want erases and no migration", st.GCErases-erases0, st.GCPages)
	}
	if n != 0 {
		t.Errorf("a write command and its write-back allocate %v objects, want 0", n)
	}
}
