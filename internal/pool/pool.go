// Package pool holds the one free list every layer of the simulator
// recycles through, from the event loop's idle carriers to the payload
// buffers of PCIe, NTB, CMB intake and destage (DESIGN.md §9).
package pool

// Free is a last-in first-out free list: Get hands back the item Put
// most recently, whose memory is the likeliest to still be in cache.
// Get zeroes the slot it takes, so the list keeps no reference to an
// item it handed out. A list made by Bounded drops a Put beyond its bound
// instead of growing. The zero value is an empty, unbounded list.
type Free[T any] struct {
	items []T
	max   int // Put drops beyond this many items; 0 = unbounded
}

// Bounded returns an empty list that keeps at most n items.
func Bounded[T any](n int) Free[T] { return Free[T]{max: n} }

// Get removes and returns the item put last, or the zero value when the
// list is empty: the caller then makes a fresh item.
//
//xssd:hotpath
func (f *Free[T]) Get() (v T) {
	if n := len(f.items) - 1; n >= 0 {
		v, f.items[n] = f.items[n], v
		f.items = f.items[:n]
	}
	return v
}

// Put returns v to the list, or drops it when a bounded list is full.
//
//xssd:hotpath
func (f *Free[T]) Put(v T) {
	if f.max == 0 || len(f.items) < f.max {
		f.items = append(f.items, v)
	}
}
