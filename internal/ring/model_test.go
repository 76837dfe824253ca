package ring

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// flatRing is the reference the chunked ring is held to: the whole
// capacity in one slice, and a flag per stream offset saying whether a
// write has covered it since the last crash. Head, frontier and gaps all
// follow from the flags, with none of the interval arithmetic the ring
// keeps.
type flatRing struct {
	data     []byte
	head     int64
	frontier int64
	written  map[int64]bool // stream offsets written at or above the frontier
}

func newFlatRing(capacity int) *flatRing {
	return &flatRing{data: make([]byte, capacity), written: map[int64]bool{}}
}

func (f *flatRing) capacity() int64 { return int64(len(f.data)) }

// highWater is one past the highest offset written, or the frontier.
func (f *flatRing) highWater() int64 {
	hw := f.frontier
	for off := range f.written {
		hw = max(hw, off+1)
	}
	return hw
}

func (f *flatRing) write(off int64, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if off < f.head {
		return ErrStale
	}
	if off+int64(len(data))-f.head > f.capacity() {
		return ErrFull
	}
	for i, b := range data {
		o := off + int64(i)
		f.data[o%f.capacity()] = b
		if o >= f.frontier {
			f.written[o] = true
		}
	}
	for f.written[f.frontier] {
		delete(f.written, f.frontier)
		f.frontier++
	}
	return nil
}

func (f *flatRing) readInto(dst []byte, off int64) error {
	if off < f.head || off+int64(len(dst)) > f.frontier {
		return ErrOutOfRange
	}
	for i := range dst {
		dst[i] = f.data[(off+int64(i))%f.capacity()]
	}
	return nil
}

func (f *flatRing) release(n int64) error {
	if n < 0 || f.head+n > f.frontier {
		return ErrRelease
	}
	f.head += n
	return nil
}

func (f *flatRing) discardGaps() { clear(f.written) }

// gaps returns the maximal runs of written offsets above the frontier.
func (f *flatRing) gaps() []Interval {
	offs := make([]int64, 0, len(f.written))
	for off := range f.written {
		offs = append(offs, off)
	}
	slices.Sort(offs)
	var out []Interval
	for _, off := range offs {
		if n := len(out); n > 0 && out[n-1].End == off {
			out[n-1].End++
		} else {
			out = append(out, Interval{off, off + 1})
		}
	}
	return out
}

// resident lists the ring's chunks that hold memory.
func resident(r *Ring) []bool {
	out := make([]bool, len(r.chunks))
	for c, b := range r.chunks {
		out[c] = b != nil
	}
	return out
}

// chunkOf is the chunk stream offset off maps to in r.
func chunkOf(r *Ring, off int64) int64 { return off % r.capacity >> r.shift }

// agree holds r to the model after one operation: the same head,
// frontier, gaps and live bytes, and memory only where it may be. A chunk
// holds memory only if some offset in [head, high-water) maps to it, and
// every chunk that holds a live or gap byte does.
func agree(t *testing.T, r *Ring, f *flatRing) bool {
	t.Helper()
	if r.Head() != f.head || r.Frontier() != f.frontier {
		t.Logf("head %d frontier %d, model %d and %d", r.Head(), r.Frontier(), f.head, f.frontier)
		return false
	}
	if g, want := r.Gaps(), f.gaps(); !slices.Equal(g, want) {
		t.Logf("gaps %v, model %v", g, want)
		return false
	}
	hw := f.highWater()
	mapped := make([]bool, len(r.chunks))
	for off := f.head; off < hw; off++ {
		mapped[chunkOf(r, off)] = true
	}
	held := resident(r)
	for c := range held {
		if held[c] && !mapped[c] {
			t.Logf("chunk %d holds memory, but no offset in [%d,%d) maps to it", c, f.head, hw)
			return false
		}
	}
	for off := f.head; off < f.frontier; off++ {
		if !held[chunkOf(r, off)] {
			t.Logf("live offset %d maps to chunk %d, which holds no memory", off, chunkOf(r, off))
			return false
		}
	}
	for off := range f.written {
		if !held[chunkOf(r, off)] {
			t.Logf("gap offset %d maps to chunk %d, which holds no memory", off, chunkOf(r, off))
			return false
		}
	}
	got, want := make([]byte, f.frontier-f.head), make([]byte, f.frontier-f.head)
	if err := r.ReadInto(got, f.head); err != nil || f.readInto(want, f.head) != nil || !bytes.Equal(got, want) {
		t.Logf("live window [%d,%d) reads %x (err %v), model %x", f.head, f.frontier, got, err, want)
		return false
	}
	return true
}

// TestQuickRingMatchesFlatModel runs random in-order, out-of-order and
// overlapping writes, rewrites below the frontier, reads, releases and
// crashes against flatRing, on rings of a few chunks whose capacity is a
// multiple of the chunk size on half the seeds and not on the other half.
// Every operation must return the model's error, and a write the ring
// refuses must leave its memory as it was. The writer laps the ring many
// times per run, so it often writes the chunk that still holds the head.
// It scales with -quickchecks.
func TestQuickRingMatchesFlatModel(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shift := uint(3 + rng.Intn(3))
		chunk := 1 << shift
		capacity := chunk * (1 + rng.Intn(5))
		if rng.Intn(2) == 0 {
			capacity += 1 + rng.Intn(chunk-1)
		}
		r, f := newRing(capacity, shift), newFlatRing(capacity)
		var fill byte
		gen := func(n int) []byte {
			b := make([]byte, n)
			for i := range b {
				fill++
				b[i] = fill
			}
			return b
		}
		for op := 0; op < 400; op++ {
			var err, want error
			switch k := rng.Intn(20); {
			case k < 12: // write: in order, ahead of a gap, overlapping, or below the frontier
				var off int64
				switch rng.Intn(4) {
				case 0:
					off = f.highWater()
				case 1:
					off = f.frontier + int64(rng.Intn(capacity))
				case 2:
					off = f.head - 4 + int64(rng.Intn(int(f.highWater()-f.head)+8))
				case 3:
					off = f.head + int64(rng.Intn(int(f.frontier-f.head)+1))
				}
				data := gen(rng.Intn(capacity/2 + 2))
				before := resident(r)
				err, want = r.Write(off, data), f.write(off, data)
				if err != nil && !slices.Equal(resident(r), before) {
					t.Logf("refused Write(%d, %d bytes) changed the resident chunks", off, len(data))
					return false
				}
			case k < 15: // read anywhere near the live window
				off := f.head - 2 + int64(rng.Intn(int(f.frontier-f.head)+4))
				n := rng.Intn(capacity + 1)
				got, exp := make([]byte, n), make([]byte, n)
				err, want = r.ReadInto(got, off), f.readInto(exp, off)
				if err == nil && !bytes.Equal(got, exp) {
					t.Logf("ReadInto(%d, %d) = %x, model %x", off, n, got, exp)
					return false
				}
			case k < 19: // release, now and then more than is live
				n := int64(rng.Intn(int(f.frontier-f.head)+3)) - 1
				err, want = r.Release(n), f.release(n)
			default:
				r.DiscardGaps()
				f.discardGaps()
			}
			if !errors.Is(err, want) || (err == nil) != (want == nil) {
				t.Logf("op %d: err %v, model %v", op, err, want)
				return false
			}
			if !agree(t, r, f) {
				t.Logf("after op %d (capacity %d, chunk %d)", op, capacity, chunk)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Fatal(err)
	}
}

// TestHeadChunkReusedByNextLap is the case a ring that freed a chunk once
// the head left it would get wrong: the writer has wrapped into the next
// lap of the chunk that still holds the head, so when the head moves on,
// that chunk still holds live bytes.
func TestHeadChunkReusedByNextLap(t *testing.T) {
	r, f := newRing(100, 5), newFlatRing(100) // chunks [0,32) [32,64) [64,96) [96,100)
	step := func(what string, err, want error) {
		t.Helper()
		if !errors.Is(err, want) || (err == nil) != (want == nil) {
			t.Fatalf("%s: err %v, model %v", what, err, want)
		}
		if !agree(t, r, f) {
			t.Fatalf("after %s", what)
		}
	}
	first, lap := bytes.Repeat([]byte{1}, 90), bytes.Repeat([]byte{2}, 25)
	step("append [0,90)", r.Write(0, first), f.write(0, first))
	step("release to 20", r.Release(20), f.release(20))
	step("append [90,115), wrapping into chunk 0", r.Write(90, lap), f.write(90, lap))
	step("release to 40, the head leaving chunk 0", r.Release(20), f.release(20))
	if r.chunks[0] == nil {
		t.Fatal("chunk 0 was freed while offsets [100,115) still live in it")
	}
	step("release to 115", r.Release(75), f.release(75))
	if held := resident(r); slices.Contains(held, true) {
		t.Fatalf("an empty ring holds chunks %v", held)
	}
}

// TestRingAllocations: a write the ring refuses allocates nothing, and a
// writer lapping the ring with the reader close behind recycles the
// chunks it vacates.
func TestRingAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own schedule")
	}
	r := newRing(1000, 6)
	data := make([]byte, 48)
	if err := r.Write(0, data); err != nil {
		t.Fatal(err)
	}
	if err := r.Release(16); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if r.Write(0, data) != ErrStale || r.Write(r.Head()+990, data) != ErrFull {
			t.Fatal("a stale and an overrunning write were not refused")
		}
	}); n != 0 {
		t.Errorf("refused writes allocate %v objects, want 0", n)
	}
	cycle := func() {
		if err := r.Write(r.Frontier(), data); err != nil {
			t.Fatal(err)
		}
		if err := r.Release(r.Live()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("an append and release allocate %v objects, want 0", n)
	}
}
