// Package a exercises the bufownership analyzer: pooled buffers used
// after their put, retained outside annotated fields, captured by timer
// callbacks, or aliased across a yield are reported; annotated retention
// points, private copies, and pre-put use are not.
package a

import (
	"time"

	"xssd/internal/fifo"
	"xssd/internal/sim"
)

type module struct {
	env *sim.Env

	//xssd:pool retain
	pending [][]byte
	//xssd:pool put
	free [][]byte

	//xssd:pool retain
	inflight fifo.Queue[[]byte]

	stash   [][]byte // not an annotated retention point
	backlog fifo.Queue[[]byte]
	byName  map[string][]byte
}

// getBuf hands out a pooled buffer.
//
//xssd:pool get
func (m *module) getBuf(n int) []byte {
	if len(m.free) == 0 {
		return make([]byte, n)
	}
	b := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	return b[:n]
}

// putBuf recycles a pooled buffer.
//
//xssd:pool put
func (m *module) putBuf(b []byte) { m.free = append(m.free, b) }

// oldest returns a view into pooled storage without transferring
// ownership.
//
//xssd:pool alias
func (m *module) oldest() []byte { return m.pending[0] }

// Rule 1: the lease ends at the put.
func (m *module) useAfterPut() byte {
	b := m.getBuf(8)
	b[0] = 1
	m.putBuf(b)
	return b[0] // want "pooled buffer b used after it was returned to the pool"
}

// Rule 2: only annotated fields may keep a pooled buffer.
func (m *module) retainInPlainField() {
	b := m.getBuf(8)
	m.stash = append(m.stash, b) // want "pooled buffer b retained in field stash"
}

// A push stores into the queue's field like an append does.
func (m *module) pushIntoPlainQueue() {
	b := m.getBuf(8)
	m.backlog.Push(b) // want "pooled buffer b retained in field backlog"
}

func (m *module) retainInMap(key string) {
	b := m.getBuf(8)
	m.byName[key] = b // want "pooled buffer b retained in a map"
}

// Rule 3: a timer callback outlives the lease.
func (m *module) timerCapture() {
	b := m.getBuf(8)
	m.env.After(time.Millisecond, func() { // want "pooled buffer b captured by a deferred timer callback"
		b[0] = 1
	})
}

// Rule 4: an alias into pooled storage dies at the first yield.
func (m *module) aliasAcrossYield(p *sim.Proc) byte {
	head := m.pending[0]
	p.Sleep(time.Microsecond)
	return head[0] // want "alias head into pooled storage is used across a blocking call"
}

func (m *module) aliasFuncAcrossYield(p *sim.Proc) byte {
	head := m.oldest()
	p.Sleep(time.Microsecond)
	return head[0] // want "alias head into pooled storage is used across a blocking call"
}

// A queue's Items and Peek are views into the retained storage.
func (m *module) queueItemsAcrossYield(p *sim.Proc) byte {
	waiting := m.inflight.Items()
	p.Sleep(time.Microsecond)
	return waiting[0][0] // want "alias waiting into pooled storage is used across a blocking call"
}

func (m *module) queuePeekAcrossYield(p *sim.Proc) byte {
	head, _ := m.inflight.Peek()
	p.Sleep(time.Microsecond)
	return head[0] // want "alias head into pooled storage is used across a blocking call"
}

// Borrowed structural contract: MemWrite may read data synchronously but
// not keep it.
func (m *module) MemWrite(off int64, data []byte) {
	m.stash = append(m.stash, data) // want "borrowed buffer data retained in field stash"
}

// retainAnnotated parks pooled buffers in the sanctioned retention
// field; no report.
func (m *module) retainAnnotated() {
	b := m.getBuf(8)
	m.pending = append(m.pending, b)
}

// pushIntoRetainQueue parks a pooled buffer in an annotated queue; no
// report.
func (m *module) pushIntoRetainQueue() {
	b := m.getBuf(8)
	m.inflight.Push(b)
}

// privateCopy is the DESIGN.md §9 idiom: the copy is owned by nobody
// but this function and survives the yield; no report.
func (m *module) privateCopy(p *sim.Proc) byte {
	head := m.pending[0]
	tail := append([]byte(nil), head...)
	p.Sleep(time.Microsecond)
	return tail[0]
}

// useBeforePut touches the buffer only while it is leased; no report.
func (m *module) useBeforePut() byte {
	b := m.getBuf(8)
	v := b[0]
	m.putBuf(b)
	return v
}

// byteSpread copies the bytes out; spreading is not retention.
func (m *module) byteSpread(out []byte) []byte {
	b := m.getBuf(8)
	out = append(out, b...)
	m.putBuf(b)
	return out
}

// copyBorrowed is the sanctioned way for a MemWrite-shaped function to
// keep the payload; no report.
func (m *module) memWriteCopy(off int64, data []byte) {
	buf := m.getBuf(len(data))
	copy(buf, data)
	m.pending = append(m.pending, buf)
}
