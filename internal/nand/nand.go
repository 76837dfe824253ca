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
	"time"

	"xssd/internal/fault"
	"xssd/internal/obs"
	"xssd/internal/sim"
)

// Geometry describes the array shape.
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
	ops       int64
}

type blockState struct {
	nextPage int // next programmable page index (NAND sequential constraint)
	bad      bool
	erases   int64
}

// Array is the flash array.
type Array struct {
	env    *sim.Env
	geo    Geometry
	timing Timing

	buses  []*sim.Link
	dies   []dieState
	blocks []blockState
	// data holds page contents in a flat slice indexed by physical page
	// number (nil = unwritten); freePages recycles page buffers from
	// erased blocks into new programs.
	//xssd:pool retain
	data [][]byte
	//xssd:pool put
	freePages [][]byte

	// Freed broadcasts whenever a die finishes an operation; dispatchers
	// wait on it.
	Freed *sim.Signal

	// stats
	reads, progs, erases int64
	injectedBad          int64

	// metrics: end-to-end op latency (issue -> completion, including bus
	// and die queueing), nil until Observe.
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
		data:   make([][]byte, geo.TotalPages()),
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

// getPageBuf returns a recycled (or fresh) page buffer.
//
//xssd:pool get
func (a *Array) getPageBuf() []byte {
	if len(a.freePages) == 0 {
		return make([]byte, a.geo.PageSize)
	}
	b := a.freePages[len(a.freePages)-1]
	a.freePages = a.freePages[:len(a.freePages)-1]
	return b
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

func (a *Array) occupyDie(ch, way int, d time.Duration, fn func()) {
	die := &a.dies[a.dieIndex(ch, way)]
	now := a.env.Now()
	if die.busyUntil < now {
		die.busyUntil = now
	}
	die.busyUntil += d
	die.ops++
	end := die.busyUntil
	a.env.At(end, func() {
		if fn != nil {
			fn()
		}
		a.Freed.Broadcast()
	})
}

// MarkBad flags a block as bad; subsequent programs and erases on it fail.
func (a *Array) MarkBad(b BlockAddr) {
	a.blocks[a.blockIndex(b)].bad = true
}

// IsBad reports whether a block has been marked bad.
func (a *Array) IsBad(b BlockAddr) bool { return a.blocks[a.blockIndex(b)].bad }

// Program writes one page. The calling (dispatcher) process blocks for the
// channel-bus transfer; the die then programs asynchronously and done(err)
// fires in scheduler context at completion. Validation errors are
// delivered through done without consuming time.
func (a *Array) Program(p *sim.Proc, addr PageAddr, data []byte, done func(error)) {
	if err := a.checkAddr(addr); err != nil {
		done(err)
		return
	}
	if len(data) != a.geo.PageSize {
		done(ErrWrongSize)
		return
	}
	blk := &a.blocks[a.blockIndex(addr.BlockAddr())]
	switch {
	case blk.bad:
		done(ErrBadBlock)
		return
	case addr.Page > blk.nextPage:
		done(ErrPageOrder)
		return
	case addr.Page < blk.nextPage:
		done(ErrNotErased)
		return
	}
	if fault.CheckEnv(a.env, fault.NANDProgram, "", 1).Fail() {
		// A late-manifesting bad block: the program fails and the block
		// is gone for good. The FTL retires it and retries elsewhere.
		blk.bad = true
		a.injectedBad++
		done(ErrBadBlock)
		return
	}
	blk.nextPage++
	buf := a.getPageBuf()
	copy(buf, data)
	pi := a.pageIndex(addr)
	start := a.env.Now()
	a.buses[addr.Channel].Transfer(p, a.geo.PageSize)
	a.progs++
	a.occupyDie(addr.Channel, addr.Way, a.timing.TProg, func() {
		a.data[pi] = buf
		a.mProgLat.Since(start)
		done(nil)
	})
}

// Read fetches one page: the die seizes for TRead, then the page moves out
// over the channel bus; done(data, err) fires when the transfer lands.
func (a *Array) Read(addr PageAddr, done func([]byte, error)) {
	if err := a.checkAddr(addr); err != nil {
		done(nil, err)
		return
	}
	data := a.data[a.pageIndex(addr)]
	if data == nil {
		done(nil, ErrUnwritten)
		return
	}
	a.reads++
	start := a.env.Now()
	a.occupyDie(addr.Channel, addr.Way, a.timing.TRead, func() {
		out := append([]byte(nil), data...)
		a.buses[addr.Channel].Send(a.geo.PageSize, func() {
			a.mReadLat.Since(start)
			done(out, nil)
		})
	})
}

// Erase wipes a block; done(err) fires at completion.
func (a *Array) Erase(b BlockAddr, done func(error)) {
	if err := a.checkAddr(PageAddr{b.Channel, b.Way, b.Block, 0}); err != nil {
		done(err)
		return
	}
	blk := &a.blocks[a.blockIndex(b)]
	if blk.bad {
		done(ErrBadBlock)
		return
	}
	if fault.CheckEnv(a.env, fault.NANDErase, "", 1).Fail() {
		blk.bad = true
		a.injectedBad++
		done(ErrBadBlock)
		return
	}
	a.erases++
	start := a.env.Now()
	a.occupyDie(b.Channel, b.Way, a.timing.TErase, func() {
		a.mEraseLat.Since(start)
		blk.nextPage = 0
		blk.erases++
		base := a.blockIndex(b) * a.geo.PagesPerBlock
		for page := 0; page < a.geo.PagesPerBlock; page++ {
			if buf := a.data[base+page]; buf != nil {
				a.freePages = append(a.freePages, buf)
				a.data[base+page] = nil
			}
		}
		done(nil)
	})
}

// PeekPage returns the stored contents of a page without simulation cost
// (used by recovery scans and tests). ok is false for unwritten pages.
func (a *Array) PeekPage(addr PageAddr) (data []byte, ok bool) {
	d := a.data[a.pageIndex(addr)]
	return d, d != nil
}

// Stats returns cumulative operation counts.
func (a *Array) Stats() (reads, programs, erases int64) { return a.reads, a.progs, a.erases }

// InjectedBadBlocks returns how many blocks a fault plan has spoiled.
func (a *Array) InjectedBadBlocks() int64 { return a.injectedBad }
