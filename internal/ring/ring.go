// Package ring implements the persistent ring-buffer core shared by the
// X-SSD fast side and its destage area (paper §4.1, §4.3).
//
// The ring is addressed by *stream offsets*: the writer appends at
// monotonically growing logical offsets, which wrap physically over a fixed
// capacity. Writes may arrive slightly out of order ("mostly sequential" in
// the paper); the ring tracks the out-of-order intervals and advances its
// *frontier* — the credit counter — only when a contiguous prefix forms.
// Data between the consumed head and the frontier is durable and
// destageable; data beyond the frontier sits in a gap and is lost on crash.
//
// The ring's memory follows the bytes it holds, not its capacity: the
// physical ring is cut into fixed-size chunks, and a chunk exists only
// while some stream offset in [head, high-water) maps to it. A write
// brings the chunks it touches into being; Release and DiscardGaps return
// the chunks they vacate to a free list (DESIGN.md §9).
package ring

import (
	"errors"
	"fmt"

	"xssd/internal/pool"
)

// chunkShift sets the size of one backing chunk, 1<<chunkShift = 256 KiB;
// a ring smaller than that is one chunk of its own capacity. A 128 MiB
// ring has 512 chunks, and a sequential writer crosses a chunk boundary
// once per 256 KiB. A power of two keeps the offset arithmetic of a write
// to a shift and a mask.
const chunkShift = 18

// maxFreeChunks bounds a ring's free list at the deepest it was measured
// (DESIGN.md §9): 1 or 2 chunks on the stackbench workloads, whose live
// windows span at most 2 chunks, and 4 on Fig 12, whose window grows to
// 485 chunks while conventional priority holds destage back. No measured
// run drops a chunk at this bound. Fig 12's window earns it: once destage
// drained such a window, an unbounded list would keep all 485 chunks.
const maxFreeChunks = 4

// Common errors returned by Ring operations. Errors carrying extra
// context wrap these sentinels; match with errors.Is.
var (
	ErrFull       = errors.New("ring: write would overwrite unconsumed data")
	ErrStale      = errors.New("ring: write below consumed head")
	ErrOutOfRange = errors.New("ring: read outside persisted region")
	ErrRelease    = errors.New("ring: release exceeds live window")
)

// Interval is a half-open [Start, End) range of stream offsets.
type Interval struct{ Start, End int64 }

// Ring is a byte ring over a fixed capacity with contiguous-prefix credit
// accounting. It is not safe for concurrent use; in this codebase all
// access is serialized by the simulation scheduler.
type Ring struct {
	capacity int64
	shift    uint // chunk c backs the physical bytes [c<<shift, (c+1)<<shift)

	// chunks[c] is chunk c's bytes, the last chunk cut short at capacity:
	// a prefix of a buffer of min(1<<shift, capacity) bytes. It is nil
	// while no offset in [head, highWater) maps there; free recycles the
	// whole buffers of the chunks Release and DiscardGaps vacate.
	//xssd:pool retain
	chunks [][]byte
	//xssd:pool put
	free pool.Free[[]byte]

	head     int64      // lowest live stream offset (already-consumed data below)
	frontier int64      // contiguous-persist frontier == credit counter value
	pending  []Interval // out-of-order writes beyond frontier, sorted, disjoint
}

// New creates a ring of the given capacity in bytes. It allocates no
// backing memory until the first write. A capacity below 1 is API misuse:
// villars.Config.CMBSize documents that it must not be negative, and
// CreateVF refuses a size below 1 before it builds a ring.
func New(capacity int) *Ring { return newRing(capacity, chunkShift) }

// newRing is New with chunks of 1<<shift bytes, so that tests can cross
// chunk boundaries with rings of a few hundred bytes.
func newRing(capacity int, shift uint) *Ring {
	if capacity <= 0 {
		panic("ring: capacity must be positive")
	}
	n := (capacity-1)>>shift + 1
	return &Ring{
		capacity: int64(capacity),
		shift:    shift,
		chunks:   make([][]byte, n),
		free:     pool.Bounded[[]byte](maxFreeChunks),
	}
}

// Head returns the lowest live stream offset (everything below has been
// consumed/destaged and released).
func (r *Ring) Head() int64 { return r.head }

// Frontier returns the contiguous-persist frontier: the total number of
// stream bytes that form a gap-free prefix. This is exactly the paper's
// credit counter value.
func (r *Ring) Frontier() int64 { return r.frontier }

// Live returns the number of bytes between head and frontier: durable data
// waiting to be consumed.
func (r *Ring) Live() int64 { return r.frontier - r.head }

// highWater returns the highest stream offset any write has reached.
func (r *Ring) highWater() int64 {
	hw := r.frontier
	if n := len(r.pending); n > 0 {
		hw = r.pending[n-1].End
	}
	return hw
}

// Free returns how many more bytes can be written before the ring would
// overwrite unconsumed data.
func (r *Ring) Free() int64 { return r.capacity - (r.highWater() - r.head) }

// Write stores data at stream offset off. It fails with ErrStale if the
// range dips below the consumed head, and ErrFull if it would exceed the
// physical capacity ahead of the head. Overlapping rewrites of
// not-yet-consumed data are allowed (last write wins).
func (r *Ring) Write(off int64, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	end := off + int64(len(data))
	if off < r.head {
		return ErrStale
	}
	if end-r.head > r.capacity {
		return ErrFull
	}
	mask := int64(1)<<r.shift - 1
	for pos := off % r.capacity; len(data) > 0; {
		c := pos >> r.shift
		if r.chunks[c] == nil {
			r.chunks[c] = r.getChunk(c)
		}
		n := copy(r.chunks[c][pos&mask:], data)
		data = data[n:]
		if pos += int64(n); pos == r.capacity {
			pos = 0
		}
	}
	r.merge(Interval{off, end})
	return nil
}

// span returns the length of chunk c: 1<<shift, the last chunk cut short
// at capacity.
func (r *Ring) span(c int64) int64 { return min(1<<r.shift, r.capacity-c<<r.shift) }

// getChunk returns chunk c's bytes in a recycled (or fresh) buffer.
//
//xssd:pool get
func (r *Ring) getChunk(c int64) []byte {
	b := r.free.Get()
	if b == nil {
		b = make([]byte, min(1<<r.shift, r.capacity))
	}
	return b[:r.span(c)]
}

// mapped reports whether some offset in the live window [head, highWater)
// maps to chunk c. The window spans at most one capacity, so it meets c
// in the lap it starts in or in the next.
func (r *Ring) mapped(c int64) bool {
	lo, hi := r.head, r.highWater()
	if lo == hi {
		return false
	}
	start := lo - lo%r.capacity + c<<r.shift // c's first offset in the window's first lap
	end := start + r.span(c)
	return start < hi && lo < end || start+r.capacity < hi && lo < end+r.capacity
}

// vacate returns to the free list every chunk that the stream range
// [from, to) maps to and the live window no longer does. Release and
// DiscardGaps call it with the range they cut off the window.
//
//xssd:hotpath
func (r *Ring) vacate(from, to int64) {
	for from < to {
		pos := from % r.capacity
		c := pos >> r.shift
		if b := r.chunks[c]; b != nil && !r.mapped(c) {
			r.free.Put(b[:cap(b)])
			r.chunks[c] = nil
		}
		from += c<<r.shift + r.span(c) - pos // the next chunk's first offset
	}
}

// merge inserts iv into the pending set and advances the frontier across
// any prefix that became contiguous.
func (r *Ring) merge(iv Interval) {
	if iv.End <= r.frontier {
		return // rewrite of already-credited data
	}
	if iv.Start < r.frontier {
		iv.Start = r.frontier
	}
	// Insert keeping the list sorted by Start, then coalesce.
	pos := len(r.pending)
	for i, p := range r.pending {
		if iv.Start < p.Start {
			pos = i
			break
		}
	}
	r.pending = append(r.pending, Interval{})
	copy(r.pending[pos+1:], r.pending[pos:])
	r.pending[pos] = iv

	out := r.pending[:1]
	for _, p := range r.pending[1:] {
		last := &out[len(out)-1]
		if p.Start <= last.End {
			if p.End > last.End {
				last.End = p.End
			}
		} else {
			out = append(out, p)
		}
	}
	r.pending = out

	// Advance the frontier while the first interval touches it. Pop by
	// copying down rather than re-slicing the head: slicing would erode
	// the backing array's capacity and make the insert above reallocate
	// on every merge.
	k := 0
	for k < len(r.pending) && r.pending[k].Start <= r.frontier {
		if r.pending[k].End > r.frontier {
			r.frontier = r.pending[k].End
		}
		k++
	}
	if k > 0 {
		n := copy(r.pending, r.pending[k:])
		r.pending = r.pending[:n]
	}
}

// Read copies n bytes starting at stream offset off into a fresh slice.
// The range must lie inside the persisted window [head, frontier).
func (r *Ring) Read(off int64, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := r.ReadInto(out, off); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto copies len(dst) bytes starting at stream offset off into dst,
// the allocation-free variant of Read for hot consumers (the destage
// pipeline reads every CMB byte back through here).
//
//xssd:hotpath
func (r *Ring) ReadInto(dst []byte, off int64) error {
	if off < r.head || off+int64(len(dst)) > r.frontier {
		return ErrOutOfRange
	}
	mask := int64(1)<<r.shift - 1
	for pos := off % r.capacity; len(dst) > 0; {
		n := copy(dst, r.chunks[pos>>r.shift][pos&mask:])
		dst = dst[n:]
		if pos += int64(n); pos == r.capacity {
			pos = 0
		}
	}
	return nil
}

// Release consumes n bytes from the head (they have been destaged or
// replicated onward) and frees their space for rewriting, recycling any
// chunk the live window leaves behind.
func (r *Ring) Release(n int64) error {
	if n < 0 || r.head+n > r.frontier {
		return fmt.Errorf("%w: release %d, live %d", ErrRelease, n, r.Live())
	}
	r.head += n
	r.vacate(r.head-n, r.head)
	return nil
}

// Gaps returns the out-of-order intervals beyond the frontier. A crash at
// this instant loses exactly these bytes (paper §4.1: "the device will stop
// destaging if it encounters a gap in the data").
func (r *Ring) Gaps() []Interval {
	out := make([]Interval, len(r.pending))
	copy(out, r.pending)
	return out
}

// DiscardGaps drops all data beyond the frontier, modelling the crash
// protocol: after power loss only the contiguous prefix survives.
func (r *Ring) DiscardGaps() {
	hw := r.highWater()
	r.pending = r.pending[:0]
	r.vacate(r.frontier, hw)
}
