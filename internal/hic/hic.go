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
	cacheData  map[int64][]byte // LBA -> buffered content
	cacheFreed *sim.Signal
	inflight   int64 // blocks being programmed

	// stats
	reads, writes, flushes, admins, errors int64
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
		cacheData:  map[int64][]byte{},
		cacheFreed: env.NewSignal(),
	}
	env.Go("hic-fetch", c.fetch)
	for i := 0; i < workers; i++ {
		env.Go("hic-worker", c.worker)
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
func (c *Controller) worker(p *sim.Proc) {
	for {
		f, ok := c.pending.Pop()
		if !ok {
			p.Wait(c.work)
			continue
		}
		c.qs.Pair(f.q).CQ.Post(c.execute(p, f.cmd))
	}
}

// BlockSize returns the logical block size: this device formats its
// namespace with one block per flash page.
func (c *Controller) BlockSize() int { return c.ftl.PageSize() }

func (c *Controller) execute(p *sim.Proc, cmd nvme.Command) nvme.Completion {
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
		return c.executeRead(p, cmd)
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
		data := c.host.DMARead(p, c.link, cmd.PRP+int64(i*bs), bs)
		// Reserve Data Buffer space; stall when the cache is full (the
		// device then runs at flash program speed).
		p.WaitFor(c.cacheFreed, func() bool {
			return c.cacheUsed+int64(bs) <= writeCacheBytes
		})
		lba := cmd.LBA + int64(i)
		c.cacheUsed += int64(bs)
		c.cacheData[lba] = data
		c.inflight++
		c.env.Go("hic-bgwrite", func(w *sim.Proc) {
			err := c.ftl.Write(w, lba, data, sched.Conventional)
			c.cacheUsed -= int64(bs)
			c.inflight--
			if cur, ok := c.cacheData[lba]; ok && &cur[0] == &data[0] {
				delete(c.cacheData, lba)
			}
			if err != nil {
				c.errors++
			}
			c.cacheFreed.Broadcast()
		})
	}
	p.Sleep(firmwareLatency)
	return nvme.Completion{ID: cmd.ID, Status: nvme.StatusSuccess}
}

func (c *Controller) executeRead(p *sim.Proc, cmd nvme.Command) nvme.Completion {
	bs := c.BlockSize()
	for i := 0; i < cmd.Blocks; i++ {
		lba := cmd.LBA + int64(i)
		var data []byte
		if buffered, ok := c.cacheData[lba]; ok {
			data = buffered
		} else {
			var err error
			data, err = c.ftl.Read(p, lba)
			if err != nil {
				c.errors++
				return nvme.Completion{ID: cmd.ID, Status: nvme.StatusError}
			}
		}
		c.host.DMAWrite(p, c.link, cmd.PRP+int64(i*bs), data)
	}
	return nvme.Completion{ID: cmd.ID, Status: nvme.StatusSuccess}
}

// Stats returns cumulative command counts.
func (c *Controller) Stats() (reads, writes, flushes, admins, errors int64) {
	return c.reads, c.writes, c.flushes, c.admins, c.errors
}
