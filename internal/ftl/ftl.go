// Package ftl implements the page-mapped Flash Translation Layer of the
// device's conventional side (paper §2.2): logical-to-physical page
// mapping, striped allocation across dies, greedy garbage collection, and
// bad-block handling (paper §7.1: a destage failure is handled internally
// by picking a new block to write).
package ftl

import (
	"errors"
	"fmt"
	"slices"

	"xssd/internal/fifo"
	"xssd/internal/nand"
	"xssd/internal/obs"
	"xssd/internal/pool"
	"xssd/internal/sched"
	"xssd/internal/sim"
)

// Errors returned by FTL operations.
var (
	ErrUnmapped = errors.New("ftl: logical page not mapped")
	ErrNoSpace  = errors.New("ftl: no free blocks and nothing to collect")
	ErrRange    = errors.New("ftl: logical page out of range")
	ErrPageSize = errors.New("ftl: payload must be exactly one page")
)

// Config tunes the FTL.
type Config struct {
	// GCThreshold triggers collection on a die when its free-block count
	// falls to or below this value.
	GCThreshold int
}

// DefaultConfig collects on a die once it is down to three free blocks.
var DefaultConfig = Config{GCThreshold: 3}

// overProvision is the fraction of raw capacity hidden from the host and
// used as GC headroom, as on a typical SSD; gcReserve blocks per die are
// usable only by the collector itself.
const (
	overProvision = 0.2
	gcReserve     = 1
)

// unmapped marks an l2p or p2l entry with no page behind it.
const unmapped = -1

// writePoint is an open block being filled by one traffic class. Each
// class (conventional/destage/GC) owns its own write point per die — the
// multi-stream arrangement that keeps NAND page-order intact even when the
// scheduler reorders requests across classes (paper §8.1 cites the same
// technique in multi-streamed SSDs).
type writePoint struct {
	active   int // block currently being filled (-1 none)
	nextPage int
}

type dieState struct {
	free   fifo.Queue[int] // erased blocks ready for allocation, oldest first
	points [3]writePoint   // per sched.Source write points
	sealed []int           // fully written blocks (GC victim candidates)
}

// FTL maps logical pages onto a nand.Array through a sched.Scheduler.
type FTL struct {
	env *sim.Env
	sch *sched.Scheduler
	geo nand.Geometry
	cfg Config

	// l2p and p2l hold page numbers in 4 bytes: nand.Geometry bounds an
	// array at nand.MaxPages pages.
	l2p        []int32 // logical -> physical page number
	p2l        []int32 // physical -> logical (unmapped for invalid/free)
	validCount []int   // per block: number of valid pages
	programs   []int   // per block: pages handed out whose program has not returned
	dies       []dieState
	nextDie    int

	spaceFreed *sim.Signal // broadcast when GC returns blocks
	gcKick     *sim.Signal
	// gcPage is the collector's migration buffer: a read fills it, and the
	// program that follows is free to reuse it at once, since the array
	// copies a program's payload when the program is issued.
	gcPage []byte

	//xssd:pool put
	ops pool.Free[*op] // recycled operation records, at most maxFreeOps

	// stats
	pagesBy              [3]int64 // committed page programs per sched.Source
	gcErases, badRetries int64
}

// maxFreeOps bounds the free list of operation records. Up to a Data
// Buffer's worth of background writes can wait on flash at once, and a
// list that kept all their records would hold that high-water mark for the
// life of the device; the steady state needs a few dozen.
const maxFreeOps = 64

// op is one flash operation a process waits on, recycled through FTL.ops:
// the scheduler request, the signal its completion broadcasts, what the
// completion delivered, and the request's Done and the wait's condition,
// both bound when the record is made.
type op struct {
	req    sched.Request
	sig    *sim.Signal
	data   []byte
	err    error
	done   bool
	isDone func() bool
}

// complete is the request's Done: record the result and wake the waiter.
func (o *op) complete(data []byte, err error) {
	o.data, o.err, o.done = data, err, true
	o.sig.Broadcast()
}

func (o *op) finished() bool { return o.done }

// getOp returns a recycled (or fresh) operation record.
//
//xssd:pool get
func (f *FTL) getOp() *op {
	if o := f.ops.Get(); o != nil {
		return o
	}
	o := &op{sig: f.env.NewSignal()}
	o.req.Done = o.complete
	o.isDone = o.finished
	return o
}

// do issues one flash operation on a recycled record and blocks the calling
// process until it completes. A read fills data, the caller's page.
//
//xssd:hotpath
func (f *FTL) do(p *sim.Proc, kind sched.OpKind, addr nand.PageAddr, data []byte, src sched.Source) ([]byte, error) {
	o := f.getOp()
	o.req.Kind, o.req.Addr, o.req.Data, o.req.Source = kind, addr, data, src
	f.sch.Submit(&o.req)
	p.WaitFor(o.sig, o.isDone)
	out, err := o.data, o.err
	o.req.Data, o.data, o.err, o.done = nil, nil, nil, false
	f.ops.Put(o)
	return out, err
}

// New builds an FTL over arr, dispatching through sch. All blocks start
// erased and free.
func New(env *sim.Env, arr *nand.Array, sch *sched.Scheduler, cfg Config) *FTL {
	geo := arr.Geometry()
	f := &FTL{
		env:        env,
		sch:        sch,
		geo:        geo,
		cfg:        cfg,
		l2p:        make([]int32, logicalPages(geo)),
		p2l:        make([]int32, geo.TotalPages()),
		validCount: make([]int, geo.Dies()*geo.BlocksPerDie),
		programs:   make([]int, geo.Dies()*geo.BlocksPerDie),
		dies:       make([]dieState, geo.Dies()),
		spaceFreed: env.NewSignal(),
		gcKick:     env.NewSignal(),
		gcPage:     make([]byte, geo.PageSize),
		ops:        pool.Bounded[*op](maxFreeOps),
	}
	for i := range f.l2p {
		f.l2p[i] = unmapped
	}
	for i := range f.p2l {
		f.p2l[i] = unmapped
	}
	for d := range f.dies {
		for c := range f.dies[d].points {
			f.dies[d].points[c].active = -1
		}
		f.dies[d].free = fifo.Make[int](geo.BlocksPerDie)
		for b := 0; b < geo.BlocksPerDie; b++ {
			f.dies[d].free.Push(b)
		}
	}
	env.Go("ftl-gc", f.gcLoop)
	return f
}

// logicalPages computes the host-visible logical page count.
func logicalPages(geo nand.Geometry) int64 {
	return int64(float64(geo.TotalPages()) * (1 - overProvision))
}

// LogicalPages returns the host-visible capacity in pages.
func (f *FTL) LogicalPages() int64 { return int64(len(f.l2p)) }

// Observe registers the FTL's telemetry under sc (the owning device
// supplies "<dev>/ftl"): page programs by the traffic class that caused
// them, the write amplification they add up to, GC progress and the
// free-block pool level. Every series is a gauge read at snapshot time.
func (f *FTL) Observe(sc obs.Scope) {
	sc.GaugeFunc("host_pages", func() int64 { return f.Stats().HostPages })
	sc.GaugeFunc("destage_pages", func() int64 { return f.pagesBy[sched.Destage] })
	sc.GaugeFunc("conventional_pages", func() int64 { return f.pagesBy[sched.Conventional] })
	sc.GaugeFunc("gc_pages", func() int64 { return f.pagesBy[sched.GC] })
	// Gauges are integers: write amplification in thousandths, 1000 = none.
	sc.GaugeFunc("waf_milli", func() int64 { return int64(f.Stats().WriteAmplification()*1000 + 0.5) })
	sc.GaugeFunc("gc_erases", func() int64 { return f.gcErases })
	sc.GaugeFunc("bad_retries", func() int64 { return f.badRetries })
	sc.GaugeFunc("free_blocks", func() int64 { return int64(f.FreeBlocks()) })
}

// PageSize returns the page size in bytes.
func (f *FTL) PageSize() int { return f.geo.PageSize }

func (f *FTL) dieOf(ppn int64) int { return int(ppn) / f.geo.PagesPerDie() }
func (f *FTL) blockOf(ppn int64) int {
	return int(ppn) % f.geo.PagesPerDie() / f.geo.PagesPerBlock
}

func (f *FTL) addr(ppn int64) nand.PageAddr {
	die := f.dieOf(ppn)
	rem := int(ppn) % f.geo.PagesPerDie()
	return nand.PageAddr{
		Channel: die / f.geo.WaysPerChan,
		Way:     die % f.geo.WaysPerChan,
		Block:   rem / f.geo.PagesPerBlock,
		Page:    rem % f.geo.PagesPerBlock,
	}
}

func (f *FTL) ppn(die, block, page int) int64 {
	return int64(die)*int64(f.geo.PagesPerDie()) + int64(block)*int64(f.geo.PagesPerBlock) + int64(page)
}

func (f *FTL) blockIndex(die, block int) int { return die*f.geo.BlocksPerDie + block }

// allocateOn picks the next physical page on a specific die for the given
// traffic class, opening a fresh block when needed. minFree guards the
// reserve: host allocations require len(free) > reserve, GC allocations
// may drain it. Returns -1 if the die has no usable write point.
func (f *FTL) allocateOn(die int, class sched.Source, minFree int) int64 {
	d := &f.dies[die]
	wp := &d.points[class]
	if wp.active == -1 || wp.nextPage == f.geo.PagesPerBlock {
		if wp.active != -1 {
			d.sealed = append(d.sealed, wp.active)
			wp.active = -1
		}
		if d.free.Len() <= minFree {
			return -1
		}
		wp.active, _ = d.free.Pop()
		wp.nextPage = 0
		if d.free.Len() <= f.cfg.GCThreshold {
			f.gcKick.Broadcast()
		}
	}
	ppn := f.ppn(die, wp.active, wp.nextPage)
	wp.nextPage++
	f.programs[f.blockIndex(die, wp.active)]++
	return ppn
}

// programmed ends the program of a page allocateOn handed out, whether it
// succeeded or not. A sealed block is a victim only once its last program
// has returned, so that return wakes the collector if the die needs it.
func (f *FTL) programmed(ppn int64) {
	die, block := f.dieOf(ppn), f.blockOf(ppn)
	bi := f.blockIndex(die, block)
	f.programs[bi]--
	d := &f.dies[die]
	if f.programs[bi] == 0 && d.free.Len() <= f.cfg.GCThreshold && slices.Contains(d.sealed, block) {
		f.gcKick.Broadcast()
	}
}

// allocate finds a write point for the class, round-robin over dies,
// waiting on GC when every die is out of space.
func (f *FTL) allocate(p *sim.Proc, class sched.Source) (int64, error) {
	for {
		for try := 0; try < len(f.dies); try++ {
			die := f.nextDie
			f.nextDie = (f.nextDie + 1) % len(f.dies)
			if ppn := f.allocateOn(die, class, gcReserve); ppn >= 0 {
				return ppn, nil
			}
		}
		if !f.anythingToCollect() {
			return 0, ErrNoSpace
		}
		f.gcKick.Broadcast()
		p.Wait(f.spaceFreed)
	}
}

// anythingToCollect reports whether any die has a sealed block, including
// one that is no victim yet because programs are still in flight on it.
func (f *FTL) anythingToCollect() bool {
	for d := range f.dies {
		if len(f.dies[d].sealed) > 0 {
			return true
		}
	}
	return false
}

// Write stores data (exactly one page) at logical page lpn, blocking the
// calling process until the flash program completes. src tags the traffic
// class for the scheduler. Bad blocks are retired and the write retried
// transparently.
func (f *FTL) Write(p *sim.Proc, lpn int64, data []byte, src sched.Source) error {
	if lpn < 0 || lpn >= f.LogicalPages() {
		return ErrRange
	}
	if len(data) != f.geo.PageSize {
		return fmt.Errorf("%w: got %d bytes, page is %d", ErrPageSize, len(data), f.geo.PageSize)
	}
	for {
		ppn, err := f.allocate(p, src)
		if err != nil {
			return err
		}
		_, progErr := f.do(p, sched.OpProgram, f.addr(ppn), data, src)
		f.programmed(ppn)
		if progErr == nand.ErrBadBlock {
			// Retire the block and retry elsewhere (paper §7.1).
			f.retireActive(f.dieOf(ppn), f.blockOf(ppn))
			f.badRetries++
			continue
		}
		if progErr != nil {
			return progErr
		}
		f.commitMapping(lpn, ppn, src)
		return nil
	}
}

// retireActive drops a bad block from whichever write point holds it.
func (f *FTL) retireActive(die, block int) {
	d := &f.dies[die]
	for c := range d.points {
		if d.points[c].active == block {
			d.points[c].active = -1
		}
	}
}

// commitMapping installs lpn->ppn and invalidates the previous location.
func (f *FTL) commitMapping(lpn, ppn int64, src sched.Source) {
	if old := int64(f.l2p[lpn]); old != unmapped {
		f.p2l[old] = unmapped
		f.validCount[f.blockIndex(f.dieOf(old), f.blockOf(old))]--
	}
	f.l2p[lpn] = int32(ppn)
	f.p2l[ppn] = int32(lpn)
	f.validCount[f.blockIndex(f.dieOf(ppn), f.blockOf(ppn))]++
	f.pagesBy[src]++
}

// ReadInto reads the page stored at lpn into dst, which must be exactly
// one page, blocking for the flash read.
func (f *FTL) ReadInto(p *sim.Proc, lpn int64, dst []byte) error {
	if lpn < 0 || lpn >= f.LogicalPages() {
		return ErrRange
	}
	ppn := int64(f.l2p[lpn])
	if ppn == unmapped {
		return ErrUnmapped
	}
	_, err := f.do(p, sched.OpRead, f.addr(ppn), dst, sched.Conventional)
	return err
}

// Read returns the page stored at lpn in a buffer of its own, blocking for
// the flash read. It is ReadInto for a caller that keeps the page.
func (f *FTL) Read(p *sim.Proc, lpn int64) ([]byte, error) {
	page := make([]byte, f.geo.PageSize)
	if err := f.ReadInto(p, lpn, page); err != nil {
		return nil, err
	}
	return page, nil
}

// Trim unmaps a logical page, invalidating its physical copy.
func (f *FTL) Trim(lpn int64) error {
	if lpn < 0 || lpn >= f.LogicalPages() {
		return ErrRange
	}
	if old := int64(f.l2p[lpn]); old != unmapped {
		f.p2l[old] = unmapped
		f.validCount[f.blockIndex(f.dieOf(old), f.blockOf(old))]--
		f.l2p[lpn] = unmapped
	}
	return nil
}

// victim returns the sealed block on die with the fewest valid pages, or -1.
// A block with programs in flight is passed over: erasing it would lose the
// pages those programs are about to map.
func (f *FTL) victim(die int) int {
	d := &f.dies[die]
	best, bestValid := -1, int(^uint(0)>>1)
	for _, b := range d.sealed {
		bi := f.blockIndex(die, b)
		if v := f.validCount[bi]; v < bestValid && f.programs[bi] == 0 {
			best, bestValid = b, v
		}
	}
	return best
}

// gcLoop runs forever: whenever a die is low on free blocks it migrates the
// valid pages of the greediest victim and erases it.
func (f *FTL) gcLoop(p *sim.Proc) {
	for {
		worked := false
		for die := range f.dies {
			d := &f.dies[die]
			if d.free.Len() > f.cfg.GCThreshold {
				continue
			}
			if f.collectOne(p, die) {
				worked = true
			}
		}
		if !worked {
			p.Wait(f.gcKick)
		}
	}
}

// collectOne migrates and erases one victim block on die. Returns false if
// the die has no victim.
func (f *FTL) collectOne(p *sim.Proc, die int) bool {
	block := f.victim(die)
	if block == -1 {
		return false
	}
	d := &f.dies[die]
	for i, b := range d.sealed {
		if b == block {
			d.sealed = append(d.sealed[:i], d.sealed[i+1:]...)
			break
		}
	}
	// Migrate valid pages within the same die (GC may use the reserve).
	for page := 0; page < f.geo.PagesPerBlock; page++ {
		src := f.ppn(die, block, page)
		lpn := f.p2l[src]
		if lpn == unmapped {
			continue
		}
		data, err := f.do(p, sched.OpRead, f.addr(src), f.gcPage, sched.GC)
		if err != nil {
			continue
		}
		// Re-check validity: the host may have overwritten lpn while we
		// were reading.
		if f.p2l[src] != lpn {
			continue
		}
		dst := f.allocateOn(die, sched.GC, 0)
		if dst < 0 {
			// Desperate: no room even in reserve; give up on this block.
			d.sealed = append(d.sealed, block)
			return false
		}
		_, err = f.do(p, sched.OpProgram, f.addr(dst), data, sched.GC)
		f.programmed(dst)
		if err != nil {
			continue
		}
		if f.p2l[src] == lpn { // still current after the program
			f.commitMapping(int64(lpn), dst, sched.GC)
		}
	}
	// Erase and return to the free pool.
	_, eraseErr := f.do(p, sched.OpErase, nand.PageAddr{Channel: die / f.geo.WaysPerChan, Way: die % f.geo.WaysPerChan, Block: block}, nil, sched.GC)
	if eraseErr != nil {
		// Bad block: retire it permanently (do not return to free pool).
		return true
	}
	f.gcErases++
	d.free.Push(block)
	f.spaceFreed.Broadcast()
	return true
}

// Stats summarizes FTL activity.
type Stats struct {
	HostPages  int64 // pages programmed on behalf of the host/destage
	GCPages    int64 // pages migrated by the collector
	GCErases   int64
	BadRetries int64
}

// WriteAmplification returns (host+gc)/host page programs, or 1 if idle.
func (s Stats) WriteAmplification() float64 {
	if s.HostPages == 0 {
		return 1
	}
	return float64(s.HostPages+s.GCPages) / float64(s.HostPages)
}

// Stats returns a snapshot of FTL counters.
func (f *FTL) Stats() Stats {
	return Stats{
		HostPages:  f.pagesBy[sched.Conventional] + f.pagesBy[sched.Destage],
		GCPages:    f.pagesBy[sched.GC],
		GCErases:   f.gcErases,
		BadRetries: f.badRetries,
	}
}

// FreeBlocks returns the total number of free blocks across all dies.
func (f *FTL) FreeBlocks() int {
	n := 0
	for d := range f.dies {
		n += f.dies[d].free.Len()
	}
	return n
}
