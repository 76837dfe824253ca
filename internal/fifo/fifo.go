// Package fifo holds the one first-in first-out queue every layer of the
// simulator uses, from the event loop's now-queue to the NVMe SQ/CQ and
// the destage pipeline (DESIGN.md §9).
package fifo

// Queue is a FIFO consumed by head index, the shape of a real SQ or CQ:
// popping the head bumps an index instead of moving the rest. A push
// reuses the backing array: a drained queue starts over at the front, and
// a full array with a popped prefix slides its waiting entries down
// instead of growing. The array therefore grows only while every slot
// holds a waiting entry, so it never exceeds twice the deepest the queue
// has been. Every slot outside the waiting entries is zero, so the queue
// keeps no reference to an entry that left it. The zero value is an empty
// queue.
type Queue[T any] struct {
	q   []T
	pos int // q[:pos] already popped
}

// Make returns an empty queue whose backing array holds n entries.
func Make[T any](n int) Queue[T] { return Queue[T]{q: make([]T, 0, n)} }

// Push appends v at the tail.
//
//xssd:hotpath
func (f *Queue[T]) Push(v T) {
	if f.pos > 0 && f.pos == len(f.q) {
		// Drained: start over at the front. Pop zeroed every slot.
		f.q, f.pos = f.q[:0], 0
	} else if f.pos > 0 && len(f.q) == cap(f.q) {
		// Full: slide the waiting entries down, zero the slots they left.
		n := copy(f.q, f.q[f.pos:])
		clear(f.q[max(n, f.pos):])
		f.q, f.pos = f.q[:n], 0
	}
	f.q = append(f.q, v)
}

// Pop removes and returns the head; ok is false when the queue is empty.
//
//xssd:hotpath
func (f *Queue[T]) Pop() (v T, ok bool) {
	if f.pos == len(f.q) {
		return v, false
	}
	var zero T
	v, f.q[f.pos] = f.q[f.pos], zero
	f.pos++
	return v, true
}

// Peek returns the head without removing it; ok is false when the queue
// is empty.
//
//xssd:hotpath
func (f *Queue[T]) Peek() (v T, ok bool) {
	if f.pos == len(f.q) {
		return v, false
	}
	return f.q[f.pos], true
}

// Len returns the number of waiting entries.
//
//xssd:hotpath
func (f *Queue[T]) Len() int { return len(f.q) - f.pos }

// Items returns the waiting entries, oldest first. The slice is a view of
// the backing array, valid until the queue next changes.
func (f *Queue[T]) Items() []T { return f.q[f.pos:] }

// RemoveAt removes and returns the i-th waiting entry (an index into
// Items); the entries behind it move up one place.
func (f *Queue[T]) RemoveAt(i int) T {
	if i == 0 {
		v, _ := f.Pop()
		return v
	}
	var zero T
	idx, last := f.pos+i, len(f.q)-1
	v := f.q[idx]
	copy(f.q[idx:], f.q[idx+1:])
	f.q[last] = zero
	f.q = f.q[:last]
	return v
}

// Clear removes every waiting entry, keeping the backing array.
func (f *Queue[T]) Clear() {
	clear(f.q[f.pos:])
	f.q = f.q[:0]
	f.pos = 0
}
