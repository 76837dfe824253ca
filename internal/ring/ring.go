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
package ring

import (
	"errors"
	"fmt"
)

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
	data     []byte
	capacity int64

	head     int64      // lowest live stream offset (already-consumed data below)
	frontier int64      // contiguous-persist frontier == credit counter value
	pending  []Interval // out-of-order writes beyond frontier, sorted, disjoint
}

// New creates a ring of the given capacity in bytes.
func New(capacity int) *Ring {
	if capacity <= 0 {
		panic("ring: capacity must be positive")
	}
	return &Ring{data: make([]byte, capacity), capacity: int64(capacity)}
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
	// At most two physical segments: [pos, capacity) then the wrap.
	pos := off % r.capacity
	n := copy(r.data[pos:], data)
	copy(r.data, data[n:])
	r.merge(Interval{off, end})
	return nil
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
func (r *Ring) ReadInto(dst []byte, off int64) error {
	if off < r.head || off+int64(len(dst)) > r.frontier {
		return ErrOutOfRange
	}
	pos := off % r.capacity
	n := copy(dst, r.data[pos:])
	copy(dst[n:], r.data)
	return nil
}

// Release consumes n bytes from the head (they have been destaged or
// replicated onward) and frees their space for rewriting.
func (r *Ring) Release(n int64) error {
	if n < 0 || r.head+n > r.frontier {
		return fmt.Errorf("%w: release %d, live %d", ErrRelease, n, r.Live())
	}
	r.head += n
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
	r.pending = r.pending[:0]
}
