// Package nand models the Flash array of the device's conventional side
// (paper §2.2, Fig 2 bottom): channels × ways of dies, each with blocks of
// pages, real page-data storage, NAND programming constraints (erase before
// program, sequential page order within a block), per-die operation
// occupancy and per-channel data buses.
//
// The package is mechanism only; operation *policy* (which write to issue
// next, opportunistic destaging) lives in internal/sched.
package nand

import (
	"errors"
	"fmt"
	"math"
	"time"

	"xssd/internal/fault"
	"xssd/internal/obs"
	"xssd/internal/pool"
	"xssd/internal/sim"
)

// Geometry describes the array shape. An array holds at most MaxPages
// pages, so that a page number fits in 4 bytes; Validate checks the bound.
type Geometry struct {
	Channels      int
	WaysPerChan   int // dies per channel
	BlocksPerDie  int
	PagesPerBlock int
	PageSize      int // bytes
}

// DefaultGeometry mirrors the Cosmos+-class array scaled for simulation:
// 8 channels × 8 ways, 16 KB pages, 256 pages/block.
var DefaultGeometry = Geometry{
	Channels:      8,
	WaysPerChan:   8,
	BlocksPerDie:  64,
	PagesPerBlock: 256,
	PageSize:      16 << 10,
}

// MaxPages bounds an array's physical page count: the array's page table
// and the FTL's maps hold page numbers as int32.
const MaxPages = math.MaxInt32

// Validate reports a geometry an array cannot be built on: a dimension
// below 1, or more than MaxPages pages.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.WaysPerChan <= 0 || g.BlocksPerDie <= 0 || g.PagesPerBlock <= 0 || g.PageSize <= 0 {
		return errors.New("nand: geometry has a zero or negative dimension")
	}
	pages := int64(1)
	for _, n := range []int{g.Channels, g.WaysPerChan, g.BlocksPerDie, g.PagesPerBlock} {
		if pages > MaxPages/int64(n) {
			return fmt.Errorf("nand: geometry has more than %d pages", MaxPages)
		}
		pages *= int64(n)
	}
	return nil
}

// Dies returns the total number of dies.
func (g Geometry) Dies() int { return g.Channels * g.WaysPerChan }

// PagesPerDie returns the number of pages on one die.
func (g Geometry) PagesPerDie() int { return g.BlocksPerDie * g.PagesPerBlock }

// TotalPages returns the number of physical pages in the array.
func (g Geometry) TotalPages() int { return g.Dies() * g.PagesPerDie() }

// Timing holds NAND operation latencies and channel bus speed.
type Timing struct {
	TRead   time.Duration
	TProg   time.Duration
	TErase  time.Duration
	BusRate float64 // channel bus bytes/second
}

// DefaultTiming: MLC-class NAND.
var DefaultTiming = Timing{
	TRead:   60 * time.Microsecond,
	TProg:   600 * time.Microsecond,
	TErase:  3500 * time.Microsecond,
	BusRate: 400e6,
}

// ProgramBandwidth returns the aggregate sustained program bandwidth of the
// whole array (all dies programming back to back).
func (g Geometry) ProgramBandwidth(t Timing) float64 {
	return float64(g.Dies()) * float64(g.PageSize) / t.TProg.Seconds()
}

// PageAddr identifies a physical page.
type PageAddr struct {
	Channel, Way, Block, Page int
}

// BlockAddr identifies a physical block.
type BlockAddr struct {
	Channel, Way, Block int
}

// Block returns the block the page lives in.
func (a PageAddr) BlockAddr() BlockAddr { return BlockAddr{a.Channel, a.Way, a.Block} }

// String implements fmt.Stringer.
func (a PageAddr) String() string {
	return fmt.Sprintf("ch%d/w%d/b%d/p%d", a.Channel, a.Way, a.Block, a.Page)
}

// Errors returned by array operations.
var (
	ErrNotErased = errors.New("nand: program to non-erased page")
	ErrPageOrder = errors.New("nand: program out of page order within block")
	ErrBadBlock  = errors.New("nand: operation on bad block")
	ErrUnwritten = errors.New("nand: read of unwritten page")
	ErrAddrRange = errors.New("nand: address out of range")
	ErrWrongSize = errors.New("nand: payload must be exactly one page")
)

type dieState struct {
	busyUntil time.Duration
}

type blockState struct {
	nextPage int // next programmable page index (NAND sequential constraint)
	bad      bool
}

// Array is the flash array.
type Array struct {
	env    *sim.Env
	geo    Geometry
	timing Timing

	buses  []*sim.Link
	dies   []dieState
	blocks []blockState
	// page maps each physical page number to its contents: 0 for an
	// unwritten page, else 1 + the index in bufs of the buffer holding
	// it. bufs grows only to the most pages ever programmed at once; an
	// erase returns its block's indices to freeBufs, and a program takes
	// one from there before it grows bufs.
	//xssd:pool retain
	page []int32
	//xssd:pool retain
	bufs [][]byte
	//xssd:pool put
	freeBufs pool.Free[int32]
	//xssd:pool put
	ops pool.Free[*dieOp] // recycled operation records

	// Freed broadcasts whenever a die finishes an operation; dispatchers
	// wait on it.
	Freed *sim.Signal

	// stats
	reads, progs, erases int64
	injectedBad          int64

	// metrics: nil until Observe.
	mProgLat  *obs.Histogram
	mReadLat  *obs.Histogram
	mEraseLat *obs.Histogram
}

// Observe registers the array's telemetry under sc (the owning device
// supplies "<dev>/nand"): cumulative op-count gauges plus program, read
// and erase latency histograms measured from issue to completion — the
// die-queueing view the paper's opportunistic-destaging argument rests on.
func (a *Array) Observe(sc obs.Scope) {
	sc.GaugeFunc("reads", func() int64 { return a.reads })
	sc.GaugeFunc("programs", func() int64 { return a.progs })
	sc.GaugeFunc("erases", func() int64 { return a.erases })
	sc.GaugeFunc("injected_bad", func() int64 { return a.injectedBad })
	// program_ns and erase_ns: from an op's issue to its die finishing it.
	// read_ns: from a read's issue to its page landing across the channel
	// bus. All three include bus and die queueing.
	a.mProgLat = sc.Histogram("program_ns")
	a.mReadLat = sc.Histogram("read_ns")
	a.mEraseLat = sc.Histogram("erase_ns")
}

// New creates an array in env with the given geometry and timing.
func New(env *sim.Env, geo Geometry, timing Timing) *Array {
	a := &Array{
		env:    env,
		geo:    geo,
		timing: timing,
		dies:   make([]dieState, geo.Dies()),
		blocks: make([]blockState, geo.Dies()*geo.BlocksPerDie),
		page:   make([]int32, geo.TotalPages()),
		Freed:  env.NewSignal(),
	}
	a.buses = make([]*sim.Link, geo.Channels)
	for i := range a.buses {
		a.buses[i] = env.NewLink(fmt.Sprintf("nand-ch%d", i), timing.BusRate, 0)
	}
	return a
}

// Geometry returns the array shape.
func (a *Array) Geometry() Geometry { return a.geo }

// Timing returns the operation latencies.
func (a *Array) Timing() Timing { return a.timing }

func (a *Array) dieIndex(ch, way int) int { return ch*a.geo.WaysPerChan + way }

func (a *Array) blockIndex(b BlockAddr) int {
	return a.dieIndex(b.Channel, b.Way)*a.geo.BlocksPerDie + b.Block
}

func (a *Array) pageIndex(p PageAddr) int {
	return a.blockIndex(p.BlockAddr())*a.geo.PagesPerBlock + p.Page
}

// getBuf returns the page-table entry of a recycled (or fresh) page
// buffer: 1 + its index in bufs.
//
//xssd:pool get
func (a *Array) getBuf() int32 {
	if b := a.freeBufs.Get(); b != 0 {
		return b
	}
	a.bufs = append(a.bufs, make([]byte, a.geo.PageSize))
	return int32(len(a.bufs))
}

// stored returns the contents of physical page pi, nil if unwritten.
func (a *Array) stored(pi int) []byte {
	if b := a.page[pi]; b != 0 {
		return a.bufs[b-1]
	}
	return nil
}

func (a *Array) checkAddr(p PageAddr) error {
	if p.Channel < 0 || p.Channel >= a.geo.Channels ||
		p.Way < 0 || p.Way >= a.geo.WaysPerChan ||
		p.Block < 0 || p.Block >= a.geo.BlocksPerDie ||
		p.Page < 0 || p.Page >= a.geo.PagesPerBlock {
		return ErrAddrRange
	}
	return nil
}

// DieBusy reports whether the die is executing an operation right now.
func (a *Array) DieBusy(ch, way int) bool {
	return a.dies[a.dieIndex(ch, way)].busyUntil > a.env.Now()
}

// opKind says what a dieOp's completion does.
type opKind uint8

const (
	opProgram opKind = iota
	opRead
	opErase
)

// dieOp is one operation occupying a die, recycled through Array.ops: what
// its completion does, and the two callbacks it schedules, bound when the
// record is made.
type dieOp struct {
	a     *Array
	kind  opKind
	page  int       // program: page index the buffer is installed at
	block BlockAddr // erase: the block wiped
	//xssd:pool retain
	slot int32 // program: the page-table entry of the buffer to install
	//xssd:pool retain
	buf   []byte // read: the page snapshotted at issue
	out   []byte // read: the caller's buffer, filled at die completion
	start time.Duration
	done  func([]byte, error)
	fire  func() // dieDone, bound once
	land  func() // landed, bound once
}

// getOp returns a recycled (or fresh) operation record.
//
//xssd:pool get
func (a *Array) getOp(kind opKind, done func([]byte, error)) *dieOp {
	o := a.ops.Get()
	if o == nil {
		o = &dieOp{a: a}
		o.fire = o.dieDone
		o.land = o.landed
	}
	o.kind, o.done, o.start = kind, done, a.env.Now()
	return o
}

//xssd:hotpath
func (a *Array) occupyDie(ch, way int, d time.Duration, o *dieOp) {
	die := &a.dies[a.dieIndex(ch, way)]
	now := a.env.Now()
	if die.busyUntil < now {
		die.busyUntil = now
	}
	die.busyUntil += d
	a.env.At(die.busyUntil, o.fire)
}

// dieDone runs when the die finishes the operation: a program installs its
// page, an erase recycles the block's pages, and a read copies the page
// into the caller's buffer and puts it on the channel bus. Then the die is
// free.
//
//xssd:hotpath
func (o *dieOp) dieDone() {
	a := o.a
	switch o.kind {
	case opProgram:
		a.page[o.page] = o.slot
		a.mProgLat.Since(o.start)
		a.finish(o, nil)
	case opErase:
		a.mEraseLat.Since(o.start)
		blk := &a.blocks[a.blockIndex(o.block)]
		blk.nextPage = 0
		base := a.blockIndex(o.block) * a.geo.PagesPerBlock
		for pi := base; pi < base+a.geo.PagesPerBlock; pi++ {
			if b := a.page[pi]; b != 0 {
				a.freeBufs.Put(b)
				a.page[pi] = 0
			}
		}
		a.finish(o, nil)
	case opRead:
		copy(o.out, o.buf)
		o.buf = nil
		a.buses[o.block.Channel].Send(a.geo.PageSize, o.land)
	}
	a.Freed.Broadcast()
}

// landed runs when a read's page has crossed the channel bus.
//
//xssd:hotpath
func (o *dieOp) landed() {
	o.a.mReadLat.Since(o.start)
	o.a.finish(o, o.out)
}

// finish recycles o, dropping its pages and callback, then delivers its
// completion.
//
//xssd:hotpath
func (a *Array) finish(o *dieOp, data []byte) {
	done := o.done
	o.buf, o.out, o.done = nil, nil, nil
	a.ops.Put(o)
	done(data, nil)
}

// MarkBad flags a block as bad; subsequent programs and erases on it fail.
func (a *Array) MarkBad(b BlockAddr) {
	a.blocks[a.blockIndex(b)].bad = true
}

// IsBad reports whether a block has been marked bad.
func (a *Array) IsBad(b BlockAddr) bool { return a.blocks[a.blockIndex(b)].bad }

// Program writes one page. The calling (dispatcher) process blocks for the
// channel-bus transfer; the die then programs asynchronously and
// done(nil, err) fires in scheduler context at completion. Validation
// errors are delivered through done without consuming time.
//
//xssd:hotpath
func (a *Array) Program(p *sim.Proc, addr PageAddr, data []byte, done func([]byte, error)) {
	if err := a.checkAddr(addr); err != nil {
		done(nil, err)
		return
	}
	if len(data) != a.geo.PageSize {
		done(nil, ErrWrongSize)
		return
	}
	blk := &a.blocks[a.blockIndex(addr.BlockAddr())]
	switch {
	case blk.bad:
		done(nil, ErrBadBlock)
		return
	case addr.Page > blk.nextPage:
		done(nil, ErrPageOrder)
		return
	case addr.Page < blk.nextPage:
		done(nil, ErrNotErased)
		return
	}
	if fault.CheckEnv(a.env, fault.NANDProgram, "", 1).Fail() {
		// A late-manifesting bad block: the program fails and the block
		// is gone for good. The FTL retires it and retries elsewhere.
		blk.bad = true
		a.injectedBad++
		done(nil, ErrBadBlock)
		return
	}
	blk.nextPage++
	o := a.getOp(opProgram, done)
	o.page = a.pageIndex(addr)
	o.slot = a.getBuf()
	copy(a.bufs[o.slot-1], data)
	a.buses[addr.Channel].Transfer(p, a.geo.PageSize)
	a.progs++
	a.occupyDie(addr.Channel, addr.Way, a.timing.TProg, o)
}

// Read fetches one page into dst: the die seizes for TRead, the page is
// copied into dst as the die finishes, and done(dst, err) fires when the
// transfer over the channel bus lands. The page is the one stored when the
// read was issued. dst must be exactly one page.
//
//xssd:hotpath
func (a *Array) Read(addr PageAddr, dst []byte, done func([]byte, error)) {
	if err := a.checkAddr(addr); err != nil {
		done(nil, err)
		return
	}
	if len(dst) != a.geo.PageSize {
		done(nil, ErrWrongSize)
		return
	}
	data := a.stored(a.pageIndex(addr))
	if data == nil {
		done(nil, ErrUnwritten)
		return
	}
	a.reads++
	o := a.getOp(opRead, done)
	o.block = addr.BlockAddr()
	o.buf, o.out = data, dst
	a.occupyDie(addr.Channel, addr.Way, a.timing.TRead, o)
}

// Erase wipes a block; done(nil, err) fires at completion.
//
//xssd:hotpath
func (a *Array) Erase(b BlockAddr, done func([]byte, error)) {
	if err := a.checkAddr(PageAddr{b.Channel, b.Way, b.Block, 0}); err != nil {
		done(nil, err)
		return
	}
	blk := &a.blocks[a.blockIndex(b)]
	if blk.bad {
		done(nil, ErrBadBlock)
		return
	}
	if fault.CheckEnv(a.env, fault.NANDErase, "", 1).Fail() {
		blk.bad = true
		a.injectedBad++
		done(nil, ErrBadBlock)
		return
	}
	a.erases++
	o := a.getOp(opErase, done)
	o.block = b
	a.occupyDie(b.Channel, b.Way, a.timing.TErase, o)
}

// PeekPage returns the stored contents of a page without simulation cost
// (used by recovery scans and tests). ok is false for unwritten pages.
func (a *Array) PeekPage(addr PageAddr) (data []byte, ok bool) {
	d := a.stored(a.pageIndex(addr))
	return d, d != nil
}

// Stats returns cumulative operation counts.
func (a *Array) Stats() (reads, programs, erases int64) { return a.reads, a.progs, a.erases }

// InjectedBadBlocks returns how many blocks a fault plan has spoiled.
func (a *Array) InjectedBadBlocks() int64 { return a.injectedBad }
