// Package hic implements the Host Interface Controller of the simulated
// device (paper §2.2, Fig 2): a device process that fetches commands from
// the NVMe submission queue, moves data in and out of host memory with DMA
// over the PCIe link, drives the FTL for block IO, and posts completions.
//
// Like the Cosmos+ the paper builds on, writes are acknowledged once the
// data sits in the device's Data Buffer ("it is very common for an SSD to
// cache data in this temporary area") and the flash program completes in
// the background; the buffer's capacity bounds how far acknowledgement can
// run ahead of the flash. Reads are served from the buffer when they hit
// an in-flight write. Vendor-specific admin commands are delegated to an
// AdminHandler so the Villars fast-side modules can extend the command set
// without touching the conventional path.
package hic

import (
	"time"

	"xssd/internal/fifo"
	"xssd/internal/ftl"
	"xssd/internal/nvme"
	"xssd/internal/pcie"
	"xssd/internal/pool"
	"xssd/internal/sched"
	"xssd/internal/sim"
)

// AdminHandler services vendor-specific commands (opcode >= 0xC0). It runs
// in the command-handling process's context and may block.
type AdminHandler interface {
	Admin(p *sim.Proc, cmd nvme.Command) nvme.Completion
}

// The controller's fixed shape: the Cosmos+ firmware the paper builds on.
const (
	// workers is the number of concurrent command-handling processes
	// (models the device's internal parallelism).
	workers = 8
	// writeCacheBytes bounds how much acknowledged-but-unprogrammed data
	// the Data Buffer may hold.
	writeCacheBytes = 64 << 20
	// firmwareLatency is the fixed per-command firmware overhead added to
	// the write-acknowledge path: prototype-grade firmware (the Cosmos+ is
	// an FPGA platform, not a production controller; its conventional-side
	// latency dominates the paper's Fig 9 NVMe series).
	firmwareLatency = 80 * time.Microsecond
)

// fetched is a command pulled from an SQ, tagged with the queue it came
// from so its completion lands on the matching CQ.
type fetched struct {
	cmd nvme.Command
	q   int
}

// Controller is the host interface controller.
type Controller struct {
	env   *sim.Env
	qs    *nvme.QueueSet
	link  *sim.Link
	host  *pcie.HostMemory
	ftl   *ftl.FTL
	admin AdminHandler

	pending fifo.Queue[fetched] // fetched commands, oldest first
	work    *sim.Signal
	rr      int // round-robin arbitration position

	// Data Buffer write cache: acknowledged blocks not yet on flash.
	cacheUsed  int64
	cacheData  map[int64]*writeBack // LBA -> its newest acknowledged block
	cacheFreed *sim.Signal
	inflight   int64 // acknowledged blocks not yet on flash, chained ones included
	writeBacks *sim.Workers[*writeBack]
	//xssd:pool put
	records pool.Free[*writeBack] // at most maxFreeRecords

	// stats
	reads, writes, flushes, admins, errors int64
}

// maxFreeRecords bounds the free list of write-back records. A burst of
// acknowledged writes can hold a Data Buffer's worth of records at once,
// and a list that kept them all would hold that high-water mark for the
// life of the device; the steady state needs a few dozen.
const maxFreeRecords = 64

// writeBack is one acknowledged block on its way to flash: the Data
// Buffer's copy of the block, recycled through Controller.records. A write
// of an LBA whose previous block is still in flight waits behind it in
// next, so the blocks of one LBA reach flash in acknowledgement order.
type writeBack struct {
	lba int64
	buf []byte // the block, one flash page
	//xssd:pool retain
	next *writeBack // the LBA's next acknowledged block, started when this one lands
}

// New starts a controller over a queue set: one fetcher process
// round-robins over the armed SQs and the command-handler processes
// execute commands, posting each completion to the CQ of the queue that
// carried the command.
func New(env *sim.Env, qs *nvme.QueueSet, link *sim.Link, host *pcie.HostMemory, f *ftl.FTL, admin AdminHandler) *Controller {
	c := &Controller{
		env:        env,
		qs:         qs,
		link:       link,
		host:       host,
		ftl:        f,
		admin:      admin,
		work:       env.NewSignal(),
		cacheData:  map[int64]*writeBack{},
		cacheFreed: env.NewSignal(),
		records:    pool.Bounded[*writeBack](maxFreeRecords),
	}
	c.writeBacks = sim.NewWorkers(env, "hic-bgwrite", c.writeBack)
	env.Go("hic-fetch", c.fetch)
	for i := 0; i < workers; i++ {
		// Each worker owns one block of scratch space for the reads it
		// serves.
		scratch := make([]byte, f.PageSize())
		env.Go("hic-worker", func(p *sim.Proc) { c.worker(p, scratch) })
	}
	return c
}

// fetch is the arbitration loop: sleep on the set's shared armed line,
// then sweep the SQs in strict round-robin — one command from each armed
// queue per turn, the NVMe default arbitration — until every SQ is dry.
//
//xssd:hotpath
func (c *Controller) fetch(p *sim.Proc) {
	n := c.qs.Len()
	for {
		moved := false
		for {
			any := false
			start := c.rr
			for i := 0; i < n; i++ {
				qi := (start + i) % n
				cmd, ok := c.qs.Pair(qi).SQ.Pop()
				if !ok {
					continue
				}
				c.pending.Push(fetched{cmd: cmd, q: qi})
				moved, any = true, true
				// The rotation resumes after the last queue served —
				// NVMe round-robin, so back-to-back sweeps do not
				// double-serve the sweep-boundary queue.
				c.rr = (qi + 1) % n
			}
			if !any {
				break
			}
		}
		if moved {
			c.work.Broadcast()
		}
		p.Wait(c.qs.Armed())
	}
}

// worker is one command-handling process: take the oldest fetched
// command, execute it, post its completion on the queue it came from.
//
//xssd:hotpath
func (c *Controller) worker(p *sim.Proc, scratch []byte) {
	for {
		f, ok := c.pending.Pop()
		if !ok {
			p.Wait(c.work)
			continue
		}
		c.qs.Pair(f.q).CQ.Post(c.execute(p, f.cmd, scratch))
	}
}

// BlockSize returns the logical block size: this device formats its
// namespace with one block per flash page.
func (c *Controller) BlockSize() int { return c.ftl.PageSize() }

func (c *Controller) execute(p *sim.Proc, cmd nvme.Command, scratch []byte) nvme.Completion {
	if cmd.Opcode >= 0xC0 {
		c.admins++
		if c.admin == nil {
			return nvme.Completion{ID: cmd.ID, Status: nvme.StatusInvalid}
		}
		out := c.admin.Admin(p, cmd)
		out.ID = cmd.ID
		return out
	}
	if (cmd.Opcode == nvme.OpWrite || cmd.Opcode == nvme.OpRead) && !c.inRange(cmd) {
		c.errors++
		return nvme.Completion{ID: cmd.ID, Status: nvme.StatusInvalid}
	}
	switch cmd.Opcode {
	case nvme.OpWrite:
		c.writes++
		return c.executeWrite(p, cmd)
	case nvme.OpRead:
		c.reads++
		return c.executeRead(p, cmd, scratch)
	case nvme.OpFlush:
		// Drain the write cache: everything acknowledged is on flash.
		c.flushes++
		p.WaitFor(c.cacheFreed, func() bool { return c.inflight == 0 })
		return nvme.Completion{ID: cmd.ID, Status: nvme.StatusSuccess}
	default:
		c.errors++
		return nvme.Completion{ID: cmd.ID, Status: nvme.StatusInvalid}
	}
}

// inRange reports whether a block command's blocks lie inside the
// namespace and its data buffer inside host memory. A command that fails
// is refused before any DMA or acknowledgement, and counts as an error,
// not as a read or write.
func (c *Controller) inRange(cmd nvme.Command) bool {
	n := int64(cmd.Blocks)
	mem := int64(len(c.host.Bytes()))
	return n >= 0 && cmd.LBA >= 0 && n <= c.ftl.LogicalPages()-cmd.LBA &&
		cmd.PRP >= 0 && cmd.PRP <= mem && n <= (mem-cmd.PRP)/int64(c.BlockSize())
}

// executeWrite DMAs the payload into the Data Buffer, schedules the flash
// programs in the background, and acknowledges after the firmware latency.
func (c *Controller) executeWrite(p *sim.Proc, cmd nvme.Command) nvme.Completion {
	bs := c.BlockSize()
	for i := 0; i < cmd.Blocks; i++ {
		wb := c.getRecord()
		c.host.DMAReadInto(p, c.link, cmd.PRP+int64(i*bs), wb.buf)
		// Reserve Data Buffer space; stall when the cache is full (the
		// device then runs at flash program speed).
		p.WaitFor(c.cacheFreed, func() bool {
			return c.cacheUsed+int64(bs) <= writeCacheBytes
		})
		wb.lba = cmd.LBA + int64(i)
		c.cacheUsed += int64(bs)
		c.inflight++
		c.enqueue(wb)
	}
	p.Sleep(firmwareLatency)
	return nvme.Completion{ID: cmd.ID, Status: nvme.StatusSuccess}
}

// getRecord returns a recycled (or fresh) write-back record.
//
//xssd:pool get
func (c *Controller) getRecord() *writeBack {
	if wb := c.records.Get(); wb != nil {
		return wb
	}
	return &writeBack{buf: make([]byte, c.BlockSize())}
}

// enqueue makes wb its LBA's newest block in the Data Buffer and starts its
// write-back, or, when an older block of the LBA is still on its way to
// flash, chains it behind that block.
//
//xssd:hotpath
func (c *Controller) enqueue(wb *writeBack) {
	if prev, ok := c.cacheData[wb.lba]; ok {
		prev.next = wb
	} else {
		c.writeBacks.Start(wb)
	}
	c.cacheData[wb.lba] = wb
}

// writeBack programs one acknowledged block, frees its Data Buffer space,
// starts the next block of its LBA if one is chained behind it, and
// recycles the record.
//
//xssd:hotpath
func (c *Controller) writeBack(w *sim.Proc, wb *writeBack) {
	err := c.ftl.Write(w, wb.lba, wb.buf, sched.Conventional)
	c.cacheUsed -= int64(len(wb.buf))
	c.inflight--
	// Comparing records is sound because wb goes back to the list only
	// below: until then no newer block can be carried by this record.
	if c.cacheData[wb.lba] == wb {
		delete(c.cacheData, wb.lba)
	}
	if err != nil {
		c.errors++
	}
	c.cacheFreed.Broadcast()
	if next := wb.next; next != nil {
		wb.next = nil
		c.writeBacks.Start(next)
	}
	c.records.Put(wb)
}

func (c *Controller) executeRead(p *sim.Proc, cmd nvme.Command, scratch []byte) nvme.Completion {
	bs := c.BlockSize()
	for i := 0; i < cmd.Blocks; i++ {
		lba := cmd.LBA + int64(i)
		if wb, ok := c.cacheData[lba]; ok {
			// A Data Buffer hit is copied now: the DMA below sleeps, and
			// meanwhile the record can land on flash and carry another
			// block.
			copy(scratch, wb.buf)
		} else if err := c.ftl.ReadInto(p, lba, scratch); err != nil {
			c.errors++
			return nvme.Completion{ID: cmd.ID, Status: nvme.StatusError}
		}
		c.host.DMAWrite(p, c.link, cmd.PRP+int64(i*bs), scratch)
	}
	return nvme.Completion{ID: cmd.ID, Status: nvme.StatusSuccess}
}

// Stats returns cumulative command counts.
func (c *Controller) Stats() (reads, writes, flushes, admins, errors int64) {
	return c.reads, c.writes, c.flushes, c.admins, c.errors
}
