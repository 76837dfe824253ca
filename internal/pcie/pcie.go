// Package pcie models the PCIe subsystem the paper builds on (§2.1, §2.3):
// point-to-point links with generation/lane bandwidth, Transaction Layer
// Packet (TLP) framing overhead, memory-mapped IO regions in Write-Combining
// or Uncached mode, and DMA transfers out of host memory.
//
// The TLP framing model is what produces the paper's Fig 10 effect: a store
// that reaches the device carries a fixed per-packet header, so small MMIO
// writes waste most of the wire. Write-Combining coalesces stores into
// cache-line-sized packets and recovers the efficiency.
package pcie

import (
	"fmt"

	"xssd/internal/fifo"
	"xssd/internal/pool"
	"xssd/internal/sim"
)

// Framing constants for the simulated fabric.
const (
	// HeaderBytes is the per-TLP overhead on the wire (header + framing).
	HeaderBytes = 20
	// MaxPayload is the largest TLP payload the fabric carries.
	MaxPayload = 256
	// WCLineSize is the write-combining buffer line size: stores flush to
	// the wire in chunks of at most this many bytes.
	WCLineSize = 64
	// UCStoreSize is the widest single store an Uncached region accepts;
	// wider writes are split into stores of this size.
	UCStoreSize = 8
)

// Generation selects per-lane bandwidth.
type Generation int

// PCIe generations supported by the model.
const (
	Gen1 Generation = 1 + iota
	Gen2
	Gen3
	Gen4
)

// LaneBandwidth returns the usable per-lane bandwidth in bytes/second.
// An unknown generation is API misuse and panics: the only caller,
// villars.New, passes the constant Gen2, and no config field or facade
// option carries a generation.
func (g Generation) LaneBandwidth() float64 {
	switch g {
	case Gen1:
		return 250e6
	case Gen2:
		return 500e6
	case Gen3:
		return 985e6
	case Gen4:
		return 1969e6
	default:
		panic(fmt.Sprintf("pcie: unknown generation %d", g))
	}
}

// WireBytes returns the on-wire size of a TLP with an n-byte payload.
func WireBytes(n int) int { return HeaderBytes + n }

// Target is the device-side sink of a mapped region. Handlers run in
// scheduler context at packet-arrival time and must not block; they should
// enqueue work and signal device processes. MemWrite's data slice is
// owned by the region and recycled after the call returns — a target that
// needs the bytes later must copy them out. MemRead's dst belongs to the
// reader: the target fills it and keeps no reference to it.
type Target interface {
	// MemWrite delivers a posted write of data at region offset off.
	MemWrite(off int64, data []byte)
	// MemRead services a non-posted read of len(dst) bytes at region
	// offset off into dst.
	MemRead(off int64, dst []byte)
}

// delivery is one in-flight posted write.
type delivery struct {
	off int64
	buf []byte
}

// Region is a device memory window (BAR mapping) reachable from a host
// through one link. The host accesses it via an MMIO handle (see NewMMIO).
//
// Posted writes ride the link's FIFO completion order, so in-flight
// payloads live in a per-region FIFO and every completion fires the same
// pre-bound deliver callback — no per-TLP closure or buffer allocation.
type Region struct {
	link   *sim.Link
	target Target
	size   int64

	//xssd:pool retain
	pendq   fifo.Queue[delivery]
	deliver func() // method value, bound once
	//xssd:pool put
	bufs pool.Free[[]byte] // free payload buffers, cap MaxPayload each
}

// NewRegion maps target behind link as a region of the given size.
func NewRegion(link *sim.Link, target Target, size int64) *Region {
	r := &Region{link: link, target: target, size: size}
	r.deliver = r.deliverNext
	return r
}

// getBuf returns a pooled payload buffer of length n (n ≤ MaxPayload).
//
//xssd:pool get
func (r *Region) getBuf(n int) []byte {
	if b := r.bufs.Get(); b != nil {
		return b[:n]
	}
	return make([]byte, n, MaxPayload)
}

// deliverNext completes the oldest in-flight posted write: hand the
// payload to the target and recycle the buffer. Runs in scheduler context
// on every arriving TLP.
//
//xssd:hotpath
func (r *Region) deliverNext() {
	d, _ := r.pendq.Pop()
	r.target.MemWrite(d.off, d.buf)
	r.bufs.Put(d.buf)
}

// post puts one posted-write TLP (payload ≤ MaxPayload) on the wire.
// Delivery to the target happens when the packet fully arrives.
//
// A write outside the region is API misuse and panics, here and in
// writeBlocking and read. Data regions are the 1 TiB CMB window, addressed
// by stream offset: XPwrite's offsets are bytes already written, which no
// run comes near 1 TiB of, and XWriteAt, whose offset is caller input,
// refuses one outside the window with an error before it stores. Control
// regions are addressed by the constant register offsets of package core,
// all inside core.ControlSize.
//
//xssd:hotpath
func (r *Region) post(off int64, data []byte) {
	if off < 0 || off+int64(len(data)) > r.size {
		//xssd:ignore hotpathalloc the message is built on the way to a panic
		panic(fmt.Sprintf("pcie: write [%d,%d) outside region of %d", off, off+int64(len(data)), r.size))
	}
	buf := r.getBuf(len(data))
	copy(buf, data)
	r.pendq.Push(delivery{off: off, buf: buf})
	r.link.Send(WireBytes(len(buf)), r.deliver)
}

// write posts one TLP and blocks the calling process for its wire
// serialization: the store occupies the CPU until it is accepted on the
// wire, not until it is delivered.
func (r *Region) write(p *sim.Proc, off int64, data []byte) {
	r.post(off, data)
	p.Sleep(r.link.SerializationTime(WireBytes(len(data))))
}

// writeBlocking sends one write TLP and stalls the calling process until
// it is delivered at the device — the Uncached store semantics: the CPU
// serializes on each store instead of posting it, which is what makes UC
// MMIO so much slower than WC (paper §6.2). An out-of-region write panics
// as in post.
func (r *Region) writeBlocking(p *sim.Proc, off int64, data []byte) {
	if off < 0 || off+int64(len(data)) > r.size {
		panic(fmt.Sprintf("pcie: write [%d,%d) outside region of %d", off, off+int64(len(data)), r.size))
	}
	buf := r.getBuf(len(data))
	copy(buf, data)
	r.link.Transfer(p, WireBytes(len(buf)))
	r.target.MemWrite(off, buf)
	r.bufs.Put(buf)
}

// read performs a non-posted read into dst: a request TLP travels to the
// device, the completion TLP returns the data. The caller blocks for the
// round trip. An out-of-region read panics as a write does in post.
func (r *Region) read(p *sim.Proc, off int64, dst []byte) {
	if off < 0 || off+int64(len(dst)) > r.size {
		panic(fmt.Sprintf("pcie: read [%d,%d) outside region of %d", off, off+int64(len(dst)), r.size))
	}
	r.link.Transfer(p, WireBytes(0)) // request
	r.target.MemRead(off, dst)
	r.link.Transfer(p, WireBytes(len(dst))) // completion
}

// MMIOMode selects the CPU caching attribute of a mapped region.
type MMIOMode int

// Supported MMIO modes (paper §4.1 / Intel SDM memory cache control).
const (
	// Uncached: every store becomes its own TLP, at most UCStoreSize wide.
	Uncached MMIOMode = iota
	// WriteCombining: stores coalesce in a WCLineSize buffer and flush as
	// one TLP per line (or partial line on a fence/discontinuity).
	WriteCombining
)

// String implements fmt.Stringer.
func (m MMIOMode) String() string {
	if m == WriteCombining {
		return "WC"
	}
	return "UC"
}

// MMIO is a host-side handle to a Region with a caching mode. It is the
// model of the application's mapped pointer into CMB. Not safe for
// concurrent use; each simulated CPU core should own its handle.
type MMIO struct {
	region *Region
	mode   MMIOMode

	// write-combining buffer state
	wcStart int64
	wcBuf   []byte

	// line train (see storeLines): the caller's bytes not yet on the wire,
	// the region offset of the next line, and the process parked in Store.
	// trainData may be a pooled buffer (a WAL flush batch): it is held only
	// while its owner is parked inside Store and dropped before Store
	// returns, so the owner cannot recycle it underneath the train.
	//xssd:pool retain
	trainData []byte
	trainOff  int64
	trainProc *sim.Proc
	trainNext func() // trainStep, bound once

	loadBuf []byte // what the last Load returned
}

// NewMMIO maps region with the given mode.
func NewMMIO(region *Region, mode MMIOMode) *MMIO {
	m := &MMIO{region: region, mode: mode, wcBuf: make([]byte, 0, WCLineSize)}
	m.trainNext = m.trainStep
	return m
}

// Store writes data at region offset off with store-width semantics of the
// region's mode. WriteCombining stores may linger in the WC buffer until
// Fence or until a line fills; Uncached stores hit the wire immediately.
func (m *MMIO) Store(p *sim.Proc, off int64, data []byte) {
	switch m.mode {
	case Uncached:
		for len(data) > 0 {
			n := UCStoreSize
			if n > len(data) {
				n = len(data)
			}
			m.region.writeBlocking(p, off, data[:n])
			off += int64(n)
			data = data[n:]
		}
	case WriteCombining:
		for len(data) > 0 {
			if len(m.wcBuf) > 0 && off != m.wcStart+int64(len(m.wcBuf)) {
				m.flush(p) // discontiguous store: spill the buffer
			}
			if len(m.wcBuf) == 0 {
				if lines := len(data) / WCLineSize; lines >= 2 && off%WCLineSize == 0 {
					n := lines * WCLineSize
					m.storeLines(p, off, data[:n])
					off += int64(n)
					data = data[n:]
					continue
				}
				m.wcStart = off
			}
			// fill up to the boundary of the line the buffer started in
			lineUsed := int(m.wcStart%WCLineSize) + len(m.wcBuf)
			n := WCLineSize - lineUsed
			if n > len(data) {
				n = len(data)
			}
			m.wcBuf = append(m.wcBuf, data[:n]...)
			off += int64(n)
			data = data[n:]
			if lineUsed+n == WCLineSize {
				m.flush(p)
			}
		}
	}
}

// storeLines sends a run of two or more whole, aligned lines — the body of
// every large store — as a train. Line by line it is the loop above: fill
// the buffer, post it, sleep one line's serialization. But between two
// lines the process does nothing except wake up to post the next, so the
// train posts the first line from the process, parks it, and lets a
// scheduler callback post each later line where the wake-up would have run;
// the last one schedules the process where the last sleep would have ended.
// Every post and every re-arm draws the sequence number the loop's did, so
// the link, the device and every other process see the same events in the
// same order (DESIGN.md §9), for one process switch per store instead of
// one per line. A single line gains nothing from it and keeps the loop.
//
// The lines are copied out of data as each one leaves, as the loop did, so
// the caller's slice stays borrowed until Store returns. A second Store
// while a train is out is API misuse and panics: every handle in the module
// is opened and used by one process (an xapi.Logger is one simulated core's,
// and the facade's Log is opened once per worker), so no other process can
// reach a handle parked here.
func (m *MMIO) storeLines(p *sim.Proc, off int64, data []byte) {
	if m.trainProc != nil {
		panic("pcie: concurrent Store on one MMIO handle")
	}
	m.trainProc, m.trainOff, m.trainData = p, off, data
	m.trainStep()
	p.Park()
}

// trainStep posts the train's next line and re-arms itself one line's
// serialization later, or after the last line wakes the storing process
// then. Runs in scheduler context except for the first line.
//
//xssd:hotpath
func (m *MMIO) trainStep() {
	m.region.post(m.trainOff, m.trainData[:WCLineSize])
	m.trainOff += WCLineSize
	m.trainData = m.trainData[WCLineSize:]
	ser := m.region.link.SerializationTime(WireBytes(WCLineSize))
	if len(m.trainData) > 0 {
		m.trainProc.Env().After(ser, m.trainNext)
		return
	}
	p := m.trainProc
	m.trainProc, m.trainData = nil, nil
	p.WakeAfter(ser)
}

func (m *MMIO) flush(p *sim.Proc) {
	if len(m.wcBuf) == 0 {
		return
	}
	m.region.write(p, m.wcStart, m.wcBuf)
	m.wcBuf = m.wcBuf[:0]
}

// Fence drains the write-combining buffer (sfence). A no-op in Uncached
// mode where stores are never buffered.
func (m *MMIO) Fence(p *sim.Proc) {
	if m.mode == WriteCombining {
		m.flush(p)
	}
}

// Load reads n bytes at off through the region's non-posted read path. The
// result is a view of a buffer the handle owns, valid until the handle's
// next Load: a caller decodes it at once or copies it.
func (m *MMIO) Load(p *sim.Proc, off int64, n int) []byte {
	if cap(m.loadBuf) < n {
		m.loadBuf = make([]byte, n)
	}
	m.loadBuf = m.loadBuf[:n]
	m.region.read(p, off, m.loadBuf)
	return m.loadBuf
}

// HostMemory is a flat host DRAM buffer that devices DMA in and out of
// through their link (the HIC's data path for conventional NVMe IO).
type HostMemory struct {
	buf []byte
}

// NewHostMemory allocates size bytes of host memory.
func NewHostMemory(size int) *HostMemory { return &HostMemory{buf: make([]byte, size)} }

// Bytes exposes the backing buffer for host-side (zero-cost) access.
func (h *HostMemory) Bytes() []byte { return h.buf }

// DMAReadInto moves len(dst) bytes from host memory at addr into the
// device buffer dst across link, blocking the calling (device) process for
// the transfer. The bytes are the ones host memory held when the transfer
// began.
func (h *HostMemory) DMAReadInto(p *sim.Proc, link *sim.Link, addr int64, dst []byte) {
	n := len(dst)
	copy(dst, h.buf[addr:addr+int64(n)])
	packets := (n + MaxPayload - 1) / MaxPayload
	link.Transfer(p, n+packets*HeaderBytes)
}

// DMAWrite moves data from the device into host memory at addr across
// link, blocking the calling (device) process for the transfer.
func (h *HostMemory) DMAWrite(p *sim.Proc, link *sim.Link, addr int64, data []byte) {
	packets := (len(data) + MaxPayload - 1) / MaxPayload
	link.Transfer(p, len(data)+packets*HeaderBytes)
	copy(h.buf[addr:], data)
}
