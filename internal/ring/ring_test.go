package ring

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// appendData writes data at the ring's high-water mark (strictly
// sequential append) and returns the stream offset it was placed at.
func appendData(r *Ring, data []byte) (int64, error) {
	off := r.highWater()
	if err := r.Write(off, data); err != nil {
		return 0, err
	}
	return off, nil
}

func TestSequentialAppendAdvancesFrontier(t *testing.T) {
	r := New(64)
	for i := 0; i < 4; i++ {
		if _, err := appendData(r, []byte("abcd")); err != nil {
			t.Fatal(err)
		}
	}
	if r.Frontier() != 16 {
		t.Fatalf("frontier = %d, want 16", r.Frontier())
	}
	got, err := r.Read(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("abcdabcdabcdabcd")) {
		t.Fatalf("read back %q", got)
	}
}

func TestOutOfOrderWriteHoldsCredit(t *testing.T) {
	r := New(64)
	// Write [8,16) first: a gap at [0,8) keeps the frontier at 0.
	if err := r.Write(8, []byte("01234567")); err != nil {
		t.Fatal(err)
	}
	if r.Frontier() != 0 {
		t.Fatalf("frontier = %d before gap fill, want 0", r.Frontier())
	}
	if gaps := r.Gaps(); len(gaps) != 1 || gaps[0] != (Interval{8, 16}) {
		t.Fatalf("gaps = %v", gaps)
	}
	// Filling the gap advances the frontier over both chunks at once.
	if err := r.Write(0, []byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	if r.Frontier() != 16 {
		t.Fatalf("frontier = %d after gap fill, want 16", r.Frontier())
	}
	if len(r.Gaps()) != 0 {
		t.Fatalf("gaps remain: %v", r.Gaps())
	}
}

func TestWriteBeyondCapacityFails(t *testing.T) {
	r := New(16)
	if _, err := appendData(r, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := appendData(r, []byte{1}); err != ErrFull {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if err := r.Release(8); err != nil {
		t.Fatal(err)
	}
	if _, err := appendData(r, make([]byte, 8)); err != nil {
		t.Fatalf("append after release: %v", err)
	}
}

func TestStaleWriteRejected(t *testing.T) {
	r := New(16)
	appendData(r, make([]byte, 8))
	r.Release(8)
	if err := r.Write(4, []byte{1}); err != ErrStale {
		t.Fatalf("err = %v, want ErrStale", err)
	}
}

func TestReadOutsidePersistedWindow(t *testing.T) {
	r := New(32)
	appendData(r, []byte("abcdefgh"))
	if _, err := r.Read(4, 8); err != ErrOutOfRange {
		t.Fatalf("read past frontier: err = %v, want ErrOutOfRange", err)
	}
	r.Release(4)
	if _, err := r.Read(0, 4); err != ErrOutOfRange {
		t.Fatalf("read below head: err = %v, want ErrOutOfRange", err)
	}
}

func TestWrapAroundPreservesData(t *testing.T) {
	r := New(10)
	payload := []byte("0123456789abcdefghij") // 2x capacity
	var off int64
	for off = 0; off < int64(len(payload)); off += 5 {
		if err := r.Write(off, payload[off:off+5]); err != nil {
			t.Fatal(err)
		}
		if err := r.Release(5); err != nil {
			t.Fatal(err)
		}
	}
	if r.Frontier() != 20 || r.Head() != 20 {
		t.Fatalf("frontier=%d head=%d", r.Frontier(), r.Head())
	}
}

func TestReleaseBeyondFrontierFails(t *testing.T) {
	r := New(16)
	appendData(r, []byte("abcd"))
	if err := r.Release(5); err == nil {
		t.Fatal("release beyond frontier succeeded")
	}
}

func TestDiscardGapsDropsOnlyUncreditedData(t *testing.T) {
	r := New(64)
	appendData(r, []byte("durable!")) // [0,8) credited
	r.Write(16, []byte("orphan"))     // [16,22) beyond a gap
	r.DiscardGaps()
	if r.Frontier() != 8 {
		t.Fatalf("frontier = %d, want 8", r.Frontier())
	}
	if len(r.Gaps()) != 0 {
		t.Fatalf("gaps remain after discard: %v", r.Gaps())
	}
	got, _ := r.Read(0, 8)
	if string(got) != "durable!" {
		t.Fatalf("prefix corrupted: %q", got)
	}
}

// property: for any permutation of chunk arrival order, once all chunks have
// arrived the frontier equals the total length and the content reads back
// exactly; at every intermediate step the frontier equals the length of the
// longest contiguous prefix delivered so far.
func TestQuickOutOfOrderDeliveryCredit(t *testing.T) {
	f := func(seed int64, nChunks uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nChunks%16) + 1
		chunks := make([][]byte, n)
		offs := make([]int64, n)
		var total int64
		for i := 0; i < n; i++ {
			size := rng.Intn(32) + 1
			c := make([]byte, size)
			rng.Read(c)
			chunks[i] = c
			offs[i] = total
			total += int64(size)
		}
		r := New(int(total))
		order := rng.Perm(n)
		delivered := make([]bool, n)
		for _, idx := range order {
			if err := r.Write(offs[idx], chunks[idx]); err != nil {
				return false
			}
			delivered[idx] = true
			// expected frontier: length of contiguous delivered prefix
			var want int64
			for j := 0; j < n && delivered[j]; j++ {
				want = offs[j] + int64(len(chunks[j]))
			}
			if r.Frontier() != want {
				return false
			}
		}
		got, err := r.Read(0, int(total))
		if err != nil {
			return false
		}
		want := bytes.Join(chunks, nil)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// property: Free + (highWater - head) == capacity always holds under random
// append/release traffic, and Write never corrupts previously credited data.
func TestQuickSpaceAccounting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := rng.Intn(200) + 20
		r := New(capacity)
		shadow := []byte{} // full logical stream
		for step := 0; step < 100; step++ {
			if rng.Intn(2) == 0 {
				size := rng.Intn(capacity/2) + 1
				if int64(size) > r.Free() {
					continue
				}
				chunk := make([]byte, size)
				rng.Read(chunk)
				if _, err := appendData(r, chunk); err != nil {
					return false
				}
				shadow = append(shadow, chunk...)
			} else if r.Live() > 0 {
				n := int64(rng.Intn(int(r.Live()))) + 1
				if err := r.Release(n); err != nil {
					return false
				}
			}
			if r.Free()+(r.Frontier()-r.Head()) != r.capacity {
				return false
			}
			// spot-check live window content against the shadow stream
			if r.Live() > 0 {
				got, err := r.Read(r.Head(), int(r.Live()))
				if err != nil {
					return false
				}
				if !bytes.Equal(got, shadow[r.Head():r.Frontier()]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
