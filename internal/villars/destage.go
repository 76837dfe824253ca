package villars

import (
	"encoding/binary"
	"time"

	"xssd/internal/fault"
	"xssd/internal/fifo"
	"xssd/internal/obs"
	"xssd/internal/sched"
	"xssd/internal/sim"
)

// Destaged-page on-flash format: every page the Destage module writes to
// the conventional side carries a small header so that the host's
// x_pread() and post-crash recovery can parse the ring without any
// side-channel metadata.
const (
	pageMagic     = 0x58534C47 // "XSLG"
	PageHeaderLen = 16         // magic(4) | stream offset(8) | payload len(4)
)

// EncodePageHeader writes the destage page header into buf.
func EncodePageHeader(buf []byte, streamOff int64, payloadLen int) {
	binary.LittleEndian.PutUint32(buf[0:4], pageMagic)
	binary.LittleEndian.PutUint64(buf[4:12], uint64(streamOff))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(payloadLen))
}

// DecodePageHeader parses a destage page header; ok is false when the page
// is not a destage page (wrong magic).
func DecodePageHeader(buf []byte) (streamOff int64, payloadLen int, ok bool) {
	if len(buf) < PageHeaderLen || binary.LittleEndian.Uint32(buf[0:4]) != pageMagic {
		return 0, 0, false
	}
	return int64(binary.LittleEndian.Uint64(buf[4:12])), int(binary.LittleEndian.Uint32(buf[12:16])), true
}

// destageModule moves data from the fast side's PM ring onto a circular
// range of logical blocks on the conventional side (paper §4.3). It
// bundles ring-head data into flash pages, padding with filler only when
// the oldest byte not yet in a page has been eligible for the latency
// bound, and keeps up to one page per die in flight so the destage stream
// can use the array's full program bandwidth. The PM ring is released
// strictly in order as pages land.
type destageModule struct {
	dev *Device
	fs  *fastSide

	baseLBA  int64
	lbaCount int64
	tail     int64 // next ring slot (monotone; LBA = base + tail%count)

	destagedStream int64 // stream bytes durable on the conventional side

	// pipeline state
	carved int64 // stream offset carved into in-flight pages

	// The latency bound's clock: a FIFO in which entry k is the instant
	// destageFloor() first passed carved + k*maxPayload(). Its head is when
	// the oldest uncarved byte became eligible; a full-page carve pops it
	// and the next entry — when the floor crossed that page's end — takes
	// over, so the remainder keeps its own age. floor - carved never
	// exceeds the PM ring, which bounds the entries at ring/page + 1: the
	// queue is made that size, so it never grows.
	since fifo.Queue[time.Duration]
	//xssd:pool retain
	inflight fifo.Queue[*destagePage]

	// recycled buffers: flash-page payloads and pipeline entries. A page
	// buffer is free once its program completed (nand copies the payload
	// at program time); an entry once it retired.
	//xssd:pool put
	pageBufs [][]byte
	//xssd:pool put
	freeEntries []*destagePage
	procName    string // per-page worker name, built once

	kick     *sim.Signal
	kickFn   func()        // kick.Broadcast, bound once for the latency-bound timer
	armedFor time.Duration // deadline of the last latency-bound timer armed
	Advanced *sim.Signal   // broadcast after every completed page

	// metrics (<fs>/destage/...)
	mPages        *obs.Counter
	mPartialPages *obs.Counter
	mFillerBytes  *obs.Counter
	mErrors       *obs.Counter
	mRetries      *obs.Counter
	mPageLat      *obs.Histogram // carve -> in-order retire, ns
}

// Destage write-failure retry policy: a failed page program (injected or
// surfacing past the FTL's own bad-block handling) is retried with a
// short backoff rather than dropped — releasing the ring without the
// bytes on flash would silently hole the gap-free prefix guarantee.
const (
	destageMaxRetries   = 8
	destageRetryBackoff = 50 * time.Microsecond
)

type destagePage struct {
	n        int64 // payload bytes
	done     bool
	err      error
	carvedAt time.Duration
}

func newDestageModule(d *Device, fs *fastSide, baseLBA, lbaCount int64) *destageModule {
	m := &destageModule{
		dev:      d,
		fs:       fs,
		baseLBA:  baseLBA,
		lbaCount: lbaCount,
		kick:     d.env.NewSignal(),
		Advanced: d.env.NewSignal(),
		procName: "destage-page-" + fs.name,
	}
	m.since = fifo.Make[time.Duration](int(fs.cmbSize/int64(m.maxPayload())) + 1)
	m.kickFn = m.kick.Broadcast
	sc := obs.For(d.env).Scope(fs.name + "/destage")
	m.mPages = sc.Counter("pages")
	m.mPartialPages = sc.Counter("partial_pages")
	m.mFillerBytes = sc.Counter("filler_bytes")
	m.mErrors = sc.Counter("errors")
	m.mRetries = sc.Counter("retries")
	m.mPageLat = sc.Histogram("page_ns")
	// Every carve adds its payload to the carve point and nothing else
	// moves it, so the stream offset is the payload account beside
	// filler_bytes: (payload + filler) / payload is the padding's share of
	// the NAND bill.
	sc.GaugeFunc("payload_bytes", func() int64 { return m.carved })
	sc.GaugeFunc("stream", func() int64 { return m.destagedStream })
	sc.GaugeFunc("inflight", func() int64 { return int64(m.inflight.Len()) })
	sc.GaugeFunc("tail_lba", func() int64 { return m.tail })
	d.env.Go("destage-"+fs.name, m.loop)
	return m
}

// DestagedStream returns the number of stream bytes destaged so far.
func (m *destageModule) DestagedStream() int64 { return m.destagedStream }

// TailLBA returns the ring slot the next page will be written to.
func (m *destageModule) TailLBA() int64 { return m.tail }

// LBARing returns the destage ring's base LBA and length in LBAs.
func (m *destageModule) LBARing() (base, count int64) { return m.baseLBA, m.lbaCount }

// maxPayload returns the data bytes that fit in one destage page.
func (m *destageModule) maxPayload() int { return m.dev.cfg.Geometry.PageSize - PageHeaderLen }

// maxInflight bounds the destage pipeline depth: one page per die keeps
// every flash unit busy without flooding the scheduler queues.
func (m *destageModule) maxInflight() int { return m.dev.cfg.Geometry.Dies() }

func (m *destageModule) loop(p *sim.Proc) {
	for {
		m.retire(m.fs.cmb)
		n := m.carvable()
		if n == 0 {
			p.Wait(m.kick)
			continue
		}
		m.carveOne(p, n)
	}
}

// carvable returns how many bytes the loop should carve into a page at
// this instant, or 0 when it has to wait: the pipeline is full, nothing is
// eligible, or there is less than a page and it is not old enough for a
// padded one. In the last case it also makes sure a timer will kick the
// loop when the latency bound falls due on a quiet ring. The bound ages the
// oldest eligible byte that is not in a page yet (eligibleSince), not the
// ring head: bytes already carved are on their way to flash whatever the
// ring still holds. eligibleSince only moves forward, so one timer per
// distinct deadline is enough.
//
//xssd:hotpath
func (m *destageModule) carvable() int64 {
	if m.inflight.Len() >= m.maxInflight() {
		return 0
	}
	eligible := m.fs.cmb.destageFloor() - m.carved
	if eligible <= 0 {
		return 0
	}
	if max := int64(m.maxPayload()); eligible >= max {
		return max
	}
	deadline := m.eligibleSince() + m.fs.latencyBound
	if m.dev.powerLost || m.dev.env.Now() >= deadline {
		return eligible
	}
	if deadline != m.armedFor {
		m.armedFor = deadline
		m.dev.env.At(deadline, m.kickFn)
	}
	return 0
}

// eligibleSince returns when the byte at the carve point became
// destage-eligible. Only meaningful while destageFloor() > carved.
//
//xssd:hotpath
func (m *destageModule) eligibleSince() time.Duration {
	t, _ := m.since.Peek()
	return t
}

// floorMoved stamps this instant on every page boundary past the carve
// point that destageFloor() has crossed since the last call — the carve
// point itself when nothing was eligible. Whatever raises the floor calls
// it in the same instant: a persist (frontierMoved) or a Free.
//
//xssd:hotpath
func (m *destageModule) floorMoved() {
	floor, max := m.fs.cmb.destageFloor(), int64(m.maxPayload())
	for next := m.carved + int64(m.since.Len())*max; next < floor; next += max {
		m.since.Push(m.dev.env.Now())
	}
}

// carveTo advances the carve point by the n bytes just bundled into a
// page. A full page hands the clock to the next boundary's stamp; a padded
// one took everything eligible, so the clock restarts at the next byte.
//
//xssd:hotpath
func (m *destageModule) carveTo(n int64) {
	m.carved += n
	if n == int64(m.maxPayload()) {
		m.since.Pop()
	} else {
		m.since.Clear()
	}
}

// frontierMoved is the CMB module's note that a persisted chunk advanced
// the frontier. On a caught-up ring that happens once per 64-byte line, and
// nearly every time the loop would wake only to find less than a page, arm
// the deadline timer if the deadline is new, and wait again. So the note
// evaluates the loop's own wait condition here, in the persist callback,
// and kicks only when the loop has something to do: a finished page at the
// head of the pipeline to retire, or a page to carve. The one side effect
// of the wake-up that is skipped — arming the timer — has happened inside
// carvable. When the loop is not parked on kick (it sleeps in carveOne's
// ring read, or a kick earlier in this instant already woke it) a kick
// would have reached nobody and the loop looks for itself when it gets
// there, so the note does no more than stamp the latency bound's clock.
// DESIGN.md §9.
//
//xssd:hotpath
func (m *destageModule) frontierMoved() {
	m.floorMoved()
	if !m.kick.Waiting() {
		return
	}
	if h, ok := m.inflight.Peek(); ok && h.done || m.carvable() > 0 {
		m.kick.Broadcast()
	}
}

// carveOne bundles n bytes at the carve point into one flash page and
// issues its program; completion is retired in order by retire().
//
//xssd:hotpath
func (m *destageModule) carveOne(p *sim.Proc, n int64) {
	cmb := m.fs.cmb
	page := m.getPage()
	EncodePageHeader(page, m.carved, int(n))
	if err := cmb.ring.ReadInto(page[PageHeaderLen:PageHeaderLen+n], m.carved); err != nil {
		// The carve point did not move, so the loop will ask for the same
		// bytes again: back off like the page worker does, or it would spin
		// at this instant forever.
		m.mErrors.Inc()
		m.pageBufs = append(m.pageBufs, page)
		p.Sleep(destageRetryBackoff)
		return
	}
	// The bytes are in the page: move the carve point before the read below
	// sleeps, so a line persisting meanwhile is aged from its own arrival.
	m.carveTo(n)
	// Reading the backing memory costs its bus (the in-device path is two
	// data movements total; paper §5.1 "Destaging Efficiency").
	cmb.bank.Read(p, int(n))

	if pad := int64(m.maxPayload()) - n; pad > 0 {
		for i := PageHeaderLen + n; i < int64(len(page)); i++ {
			page[i] = 0
		}
		m.mFillerBytes.Add(pad)
		m.mPartialPages.Inc()
	}

	entry := m.getEntry()
	entry.n = n
	entry.carvedAt = m.dev.env.Now()
	m.inflight.Push(entry)
	lba := m.baseLBA + m.tail%m.lbaCount
	m.tail++
	//xssd:ignore hotpathalloc the per-page worker closure is the pipeline's unit of work
	m.dev.env.Go(m.procName, func(w *sim.Proc) {
		for attempt := 0; ; attempt++ {
			if d := fault.CheckEnv(m.dev.env, fault.DestageWrite, m.fs.name, 1); d.Fail() {
				entry.err = fault.ErrInjected
			} else {
				if d.Act == fault.ActionDelay {
					w.Sleep(d.Dur)
				}
				entry.err = m.dev.ftl.Write(w, lba, page, sched.Destage)
			}
			if entry.err == nil || attempt >= destageMaxRetries {
				break
			}
			m.mRetries.Inc()
			w.Sleep(destageRetryBackoff)
		}
		// The array copied the payload when the program was issued; the
		// page buffer can serve the next carve.
		m.pageBufs = append(m.pageBufs, page)
		entry.done = true
		m.kick.Broadcast()
	})
}

// getPage returns a pooled page-sized buffer.
//
//xssd:pool get
func (m *destageModule) getPage() []byte {
	if len(m.pageBufs) == 0 {
		return make([]byte, m.dev.cfg.Geometry.PageSize)
	}
	b := m.pageBufs[len(m.pageBufs)-1]
	m.pageBufs = m.pageBufs[:len(m.pageBufs)-1]
	return b
}

// getEntry returns a recycled pipeline entry.
//
//xssd:pool get
func (m *destageModule) getEntry() *destagePage {
	if len(m.freeEntries) == 0 {
		return &destagePage{}
	}
	e := m.freeEntries[len(m.freeEntries)-1]
	m.freeEntries = m.freeEntries[:len(m.freeEntries)-1]
	*e = destagePage{}
	return e
}

// retire releases completed pages from the head of the pipeline, in order,
// freeing the PM ring and advancing the destaged-stream counter.
//
//xssd:hotpath
func (m *destageModule) retire(cmb *cmbModule) {
	for e, ok := m.inflight.Peek(); ok && e.done; e, ok = m.inflight.Peek() {
		m.inflight.Pop()
		if e.err != nil {
			// The page proc already retried with backoff; a persistent
			// failure surfacing here is fatal for this page. Drop it but
			// keep accounting sane: the ring is still released so the
			// stream keeps moving.
			m.mErrors.Inc()
		}
		if err := cmb.ring.Release(e.n); err != nil {
			m.mErrors.Inc()
			m.freeEntries = append(m.freeEntries, e)
			continue
		}
		m.destagedStream = cmb.ring.Head()
		m.dev.tracer.Record(obs.DestagePage, m.fs.name, m.destagedStream, e.n)
		m.mPageLat.Since(e.carvedAt)
		m.Advanced.Broadcast()
		m.mPages.Inc()
		// Recycle the entry only after its last field read: bufownership
		// treats the free-list append as the end of this side's lease.
		m.freeEntries = append(m.freeEntries, e)
	}
}
