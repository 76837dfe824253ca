// Package xapi is the host-side drop-in replacement API of the Villars
// device (paper §5): XPwrite/XFsync/XPread substitute pwrite/fsync/pread
// for the transaction-log file, and XAlloc/XFree expose the fast side as
// memory (§5.2). None of these are system calls — they operate on mapped
// MMIO windows and therefore avoid the context-switch penalty the paper
// highlights.
package xapi

import (
	"errors"
	"fmt"
	"time"

	"xssd/internal/core"
	"xssd/internal/nvme"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/sim"
	"xssd/internal/villars"
)

// CreditStrategy selects how XPwrite paces itself against the credit
// counter (paper §5.1 tried several; "use all the credits available
// without intermediate checks, then pause to read the credit anew" won).
type CreditStrategy int

// Credit-check strategies.
const (
	// UseAllCredits writes the full known budget before re-reading the
	// counter (the paper's best performer, and the default).
	UseAllCredits CreditStrategy = iota
	// CheckEveryChunk re-reads the credit counter before every chunk
	// (the slow alternative, kept for the ablation benchmark).
	CheckEveryChunk
)

// Sentinel errors. Concrete failures wrap these with cursor/command
// context, so callers match with errors.Is.
var (
	// ErrPowerLoss is returned when the device reports a power-loss state.
	ErrPowerLoss = errors.New("xapi: device in power-loss state")
	// ErrNoHostMem reports an XPread without Options.HostMem configured.
	ErrNoHostMem = errors.New("xapi: XPread requires Options.HostMem")
	// ErrReadFailed reports a failed NVMe read of the destage ring.
	ErrReadFailed = errors.New("xapi: destage ring read failed")
	// ErrBadPage reports a destage-ring page with an invalid header.
	ErrBadPage = errors.New("xapi: malformed destage page")
	// ErrLapped reports a tail reader overtaken by the destage ring.
	ErrLapped = errors.New("xapi: tail reader fell behind the destage ring")
	// ErrAllocFailed reports a rejected XAlloc command.
	ErrAllocFailed = errors.New("xapi: alloc failed")
	// ErrFreeFailed reports a rejected XFree command.
	ErrFreeFailed = errors.New("xapi: free failed")
	// ErrOutOfWindow reports an XWriteAt whose bytes fall outside the CMB
	// data window.
	ErrOutOfWindow = errors.New("xapi: write outside the CMB window")
)

// Endpoint is anything a Logger can bind to: a whole Villars device or
// one of its virtual functions (paper §7.2). Both expose a CMB data
// window, a register file, and the conventional-side NVMe driver. Name
// scopes the logger's telemetry under the endpoint's hierarchy.
type Endpoint interface {
	Name() string
	DataRegion() *pcie.Region
	ControlRegion() *pcie.Region
	HostDriver() *nvme.Driver
	BlockSize() int
	PowerLost() bool
}

// Logger is one writer context bound to an endpoint's fast side. It is
// the moral equivalent of an open file descriptor for the transaction
// log. A Logger is single-threaded by construction (one simulated core);
// use XAlloc areas or per-writer virtual functions for multi-writer
// schemes (§5.2, §7.1).
type Logger struct {
	env    *sim.Env
	dev    Endpoint
	data   *pcie.MMIO // CMB window, write-combining
	ctl    *pcie.MMIO // control registers, uncached
	driver *nvme.Driver
	fc     *core.FlowControl
	strat  CreditStrategy

	// tail-read cursor (§5.1 pread substitution)
	readStream int64 // next stream offset to hand to the application
	readSlot   int64 // destage-ring slot expected to contain readStream
	scratch    int64 // host-memory address used for NVMe read DMA
	hostMem    *pcie.HostMemory

	// per-logger stats
	creditReads int64

	// metrics (<endpoint>/xapi/...): shared across loggers on the same
	// endpoint — the registry deduplicates by name.
	mCreditReads *obs.Counter
	mBytes       *obs.Counter
	mStall       *obs.Histogram
	mFsync       *obs.Histogram
}

// Options tune Open.
type Options struct {
	Strategy CreditStrategy
	// Uncached maps the CMB window UC instead of write-combining (the
	// Fig 10 comparison).
	Uncached bool
	// Scratch is the host-memory offset XPread DMAs pages into.
	Scratch int64
	// HostMem is the host memory XPread uses; required for XPread.
	HostMem *pcie.HostMemory
	// ResumeAt positions the stream cursor at a takeover point instead of
	// zero: the host continues an existing log stream on a promoted
	// secondary whose credit counter already vouches for every byte below
	// this offset (failover).
	ResumeAt int64
}

// Open binds a logger to an endpoint: maps the CMB window write-combining
// (or uncached), the control window uncached, and reads the negotiated
// queue size from the device (paper §4.1: "a pre-negotiated size").
func Open(p *sim.Proc, dev Endpoint, opts Options) *Logger {
	mode := pcie.WriteCombining
	if opts.Uncached {
		mode = pcie.Uncached
	}
	l := &Logger{
		env:     p.Env(),
		dev:     dev,
		data:    pcie.NewMMIO(dev.DataRegion(), mode),
		ctl:     pcie.NewMMIO(dev.ControlRegion(), pcie.Uncached),
		driver:  dev.HostDriver(),
		strat:   opts.Strategy,
		scratch: opts.Scratch,
		hostMem: opts.HostMem,
	}
	sc := obs.For(l.env).Scope(dev.Name() + "/xapi")
	l.mCreditReads = sc.Counter("credit_reads")
	l.mBytes = sc.Counter("bytes")
	// stall_ns: from XPwrite finding its credit used up to the credit read
	// that grants more. fsync_ns: from an XFsync call to the credit read
	// showing every written byte persistent (successful calls only).
	l.mStall = sc.Histogram("stall_ns")
	l.mFsync = sc.Histogram("fsync_ns")
	qs := l.readReg(p, core.RegQueueSize)
	l.fc = core.NewFlowControl(qs)
	if opts.ResumeAt > 0 {
		l.fc.Resume(opts.ResumeAt)
	}
	return l
}

func (l *Logger) readReg(p *sim.Proc, reg int64) int64 {
	b := l.ctl.Load(p, reg, 8)
	var v int64
	for i := 0; i < 8; i++ {
		v |= int64(b[i]) << (8 * i)
	}
	return v
}

// refreshCredit reads the credit counter register and updates flow
// control, returning the new budget.
func (l *Logger) refreshCredit(p *sim.Proc) int64 {
	l.creditReads++
	l.mCreditReads.Inc()
	return l.fc.Observe(l.readReg(p, core.RegCredit))
}

// XPwrite appends buf to the fast side and returns its stream offset. It
// copies the buffer into CMB in credit-sized chunks, pausing to re-read
// the counter when the budget runs out (paper §5.1, Fig 8 top). The call
// returns when the last byte is on the wire; durability is checked with
// XFsync.
func (l *Logger) XPwrite(p *sim.Proc, buf []byte) int64 {
	start := l.fc.Written()
	off := start
	for len(buf) > 0 {
		budget := l.fc.Budget()
		if l.strat == CheckEveryChunk {
			budget = l.refreshCredit(p)
		}
		for budget <= 0 {
			t0 := p.Now()
			budget = l.refreshCredit(p)
			if budget <= 0 && l.dev.PowerLost() {
				return start
			}
			l.mStall.Since(t0)
		}
		n := int(budget)
		if n > len(buf) {
			n = len(buf)
		}
		l.data.Store(p, off, buf[:n])
		l.mBytes.Add(int64(n))
		l.fc.Note(int64(n))
		off += int64(n)
		buf = buf[n:]
	}
	l.data.Fence(p)
	return start
}

// XFsync blocks until every byte issued by prior XPwrite calls is
// persistent under the device's active replication scheme (paper §5.1,
// Fig 8 bottom: read the counter until it covers the written total). It
// is XWait on a token covering everything written so far.
func (l *Logger) XFsync(p *sim.Proc) error {
	span := l.mFsync.Start()
	if err := l.XWait(p, l.XToken()); err != nil {
		return err
	}
	span.End() // only successful fsyncs enter the latency series
	return nil
}

// Token is an async durability handle: the stream offset that must be
// covered by the device's credit counter before the submission it names
// is persistent. Tokens are totally ordered — waiting on a later token
// subsumes every earlier one — so a pipeline only ever needs to track
// its newest.
type Token int64

// XSubmit appends buf like XPwrite but returns a durability token
// instead of implying a later XFsync: the submission is durable once
// XPoll(tok) reports true (or XWait(tok) returns). The call still pays
// the wire and credit pacing; only the durability wait is deferred.
//
//xssd:hotpath
func (l *Logger) XSubmit(p *sim.Proc, buf []byte) Token {
	l.XPwrite(p, buf)
	return Token(l.fc.Written())
}

// XToken returns a token covering everything issued so far — the async
// analogue of "fsync here".
func (l *Logger) XToken() Token { return Token(l.fc.Written()) }

// XPoll reports whether tok is durable, refreshing the credit counter at
// most once (a single PCIe register read). It never blocks beyond that
// read — the polling half of the async surface.
//
//xssd:hotpath
func (l *Logger) XPoll(p *sim.Proc, tok Token) bool {
	if l.fc.Covered(int64(tok)) {
		return true
	}
	l.refreshCredit(p)
	return l.fc.Covered(int64(tok))
}

// XWait blocks until tok is durable (the targeted XFsync): it re-reads
// the credit counter until it covers the token, backing off when the
// device reports a stalled replica, and fails with ErrPowerLoss if the
// device dies first.
func (l *Logger) XWait(p *sim.Proc, tok Token) error {
	l.data.Fence(p)
	for !l.fc.Covered(int64(tok)) {
		l.refreshCredit(p)
		if l.fc.Covered(int64(tok)) {
			break
		}
		if l.dev.PowerLost() {
			return ErrPowerLoss
		}
		// The register read itself paces the loop (a PCIe round trip);
		// checking the status register on suspicion of staleness is the
		// paper's §7.1 recommendation.
		if st := l.readReg(p, core.RegStatus); st&core.StatusReplicaStalled != 0 {
			p.Sleep(time.Microsecond) // back off; replica recovering
		}
	}
	return nil
}

// Written returns the total stream bytes issued through this logger.
func (l *Logger) Written() int64 { return l.fc.Written() }

// CreditReads returns how many credit-register reads were issued (the
// ablation metric for CreditStrategy).
func (l *Logger) CreditReads() int64 { return l.creditReads }

// XPread implements tail-read semantics (paper §5.1): it fills buf with
// the next adjacent bytes of the destaged log, blocking until the
// conventional side holds enough data. It returns the stream offset of
// buf[0].
func (l *Logger) XPread(p *sim.Proc, buf []byte) (int64, error) {
	if l.hostMem == nil {
		return 0, ErrNoHostMem
	}
	startOff := l.readStream
	need := len(buf)
	filled := 0
	base := l.readReg(p, core.RegDestageBaseLBA)
	count := l.readReg(p, core.RegDestageLBACount)
	bs := l.dev.BlockSize()
	for filled < need {
		// Block until the destage module has moved past our cursor.
		for l.readReg(p, core.RegDestagedStream) <= l.readStream {
			p.Sleep(5 * time.Microsecond)
		}
		lba := base + l.readSlot%count
		c := l.driver.Submit(p, nvme.Command{Opcode: nvme.OpRead, LBA: lba, Blocks: 1, PRP: l.scratch})
		if c.Status != nvme.StatusSuccess {
			return startOff, fmt.Errorf("%w: slot %d (lba %d), status %d", ErrReadFailed, l.readSlot, lba, c.Status)
		}
		page := l.hostMem.Bytes()[l.scratch : l.scratch+int64(bs)]
		pageOff, payloadLen, ok := villars.DecodePageHeader(page)
		if !ok {
			return startOff, fmt.Errorf("%w: slot %d (lba %d)", ErrBadPage, l.readSlot, lba)
		}
		if l.readStream >= pageOff+int64(payloadLen) {
			// Cursor already past this page: advance to the next slot.
			l.readSlot++
			continue
		}
		if l.readStream < pageOff {
			// The ring lapped us: data between readStream and pageOff is
			// gone from the ring (still on the PM side or overwritten).
			return startOff, fmt.Errorf("%w: cursor %d, oldest ring data %d", ErrLapped, l.readStream, pageOff)
		}
		from := int(l.readStream - pageOff)
		n := payloadLen - from
		if n > need-filled {
			n = need - filled
		}
		copy(buf[filled:], page[villars.PageHeaderLen+from:villars.PageHeaderLen+from+n])
		filled += n
		l.readStream += int64(n)
		if from+n == payloadLen {
			l.readSlot++
		}
	}
	return startOff, nil
}

// XAlloc reserves a fast-side area for random-order writing (paper §5.2).
// It issues the vendor-specific allocation command and returns the area's
// stream offset.
func (l *Logger) XAlloc(p *sim.Proc, size int) (int64, error) {
	c := l.driver.Submit(p, nvme.Command{Opcode: nvme.OpXAlloc, CDW: int64(size)})
	if c.Status != nvme.StatusSuccess {
		return 0, fmt.Errorf("%w: %d bytes, status %d", ErrAllocFailed, size, c.Status)
	}
	return c.Value, nil
}

// XWriteAt stores data inside an allocated area at the given stream
// offset, in any order. The caller owns pacing (allocated areas are pinned
// on the ring, so the intake queue is the only limit). The offset is the
// caller's: a write reaching outside the CMB data window stores nothing
// and returns ErrOutOfWindow.
func (l *Logger) XWriteAt(p *sim.Proc, off int64, data []byte) error {
	if off < 0 || off > villars.CMBWindowSize-int64(len(data)) {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfWindow, off, off+int64(len(data)), villars.CMBWindowSize)
	}
	l.data.Store(p, off, data)
	l.data.Fence(p)
	return nil
}

// XFree releases an allocated area, making it destage-eligible.
func (l *Logger) XFree(p *sim.Proc, start int64) error {
	c := l.driver.Submit(p, nvme.Command{Opcode: nvme.OpXFree, CDW: start})
	if c.Status != nvme.StatusSuccess {
		return fmt.Errorf("%w: area %d, status %d", ErrFreeFailed, start, c.Status)
	}
	return nil
}
