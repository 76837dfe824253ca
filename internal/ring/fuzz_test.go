package ring

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzRingFold drives a small ring through an op-coded script and
// cross-checks the append/fold/wrap offset arithmetic against a flat
// shadow of the stream: physical wrapping must never change what a read
// of the live window returns, error paths must fire exactly on their
// documented conditions, and the head/frontier accounting must stay
// monotonic and in range.
func FuzzRingFold(f *testing.F) {
	f.Add([]byte{8, 0, 4, 0, 4, 2, 4})             // append, append, release
	f.Add([]byte{4, 1, 2, 3, 0, 200, 3, 0, 16})    // out-of-order write, read
	f.Add([]byte{16, 0, 10, 0, 10, 0, 10, 2, 255}) // wrap twice, over-release
	f.Add([]byte{1, 0, 1, 0, 1, 2, 1, 0, 1})       // capacity 1: wrap every byte
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		capacity := int(script[0])%64 + 1
		script = script[1:]
		r := New(capacity)

		shadow := map[int64]byte{} // stream offset -> last byte written
		var fill byte              // rolling content generator
		genData := func(n int) []byte {
			data := make([]byte, n)
			for i := range data {
				fill++
				data[i] = fill
			}
			return data
		}
		record := func(off int64, data []byte) {
			for i, b := range data {
				shadow[off+int64(i)] = b
			}
		}

		prevHead, prevFrontier := r.Head(), r.Frontier()
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		for len(script) > 0 {
			op := next()
			switch op % 4 {
			case 0: // Append
				data := genData(int(next()) % (capacity + 4))
				want := r.highWater()
				off, err := appendData(r, data)
				wantErr := len(data) > 0 && want+int64(len(data))-r.Head() > r.capacity
				if (err != nil) != wantErr {
					t.Fatalf("Append(%d bytes): err=%v, want error=%v", len(data), err, wantErr)
				}
				if err == nil {
					if len(data) > 0 && off != want {
						t.Fatalf("Append placed at %d, want high-water %d", off, want)
					}
					record(off, data)
				}
			case 1: // Write, possibly out of order or stale
				off := r.Head() + int64(next()) - 16
				data := genData(int(next()) % (capacity + 4))
				err := r.Write(off, data)
				var wantErr error
				switch {
				case len(data) == 0:
				case off < r.Head():
					wantErr = ErrStale
				case off+int64(len(data))-r.Head() > r.capacity:
					wantErr = ErrFull
				}
				if !errors.Is(err, wantErr) {
					t.Fatalf("Write(%d, %d bytes): err=%v, want %v", off, len(data), err, wantErr)
				}
				if err == nil {
					record(off, data)
				}
			case 2: // Release
				n := int64(next())
				live := r.Live()
				err := r.Release(n)
				if (err != nil) != (n > live) {
					t.Fatalf("Release(%d) with live %d: err=%v", n, live, err)
				}
			case 3: // Read back from the live window
				off := r.Head() + int64(next()) - 4
				n := int(next()) % 32
				got, err := r.Read(off, n)
				wantErr := off < r.Head() || off+int64(n) > r.Frontier()
				if (err != nil) != wantErr {
					t.Fatalf("Read(%d, %d) window [%d,%d): err=%v", off, n, r.Head(), r.Frontier(), err)
				}
				if err == nil {
					want := make([]byte, n)
					for i := range want {
						want[i] = shadow[off+int64(i)]
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("Read(%d, %d) = %x, shadow says %x", off, n, got, want)
					}
				}
			}
			checkInvariants(t, r, prevHead, prevFrontier)
			prevHead, prevFrontier = r.Head(), r.Frontier()
		}
	})
}

func checkInvariants(t *testing.T, r *Ring, prevHead, prevFrontier int64) {
	t.Helper()
	if r.Head() < prevHead || r.Frontier() < prevFrontier {
		t.Fatalf("head/frontier moved backwards: head %d->%d, frontier %d->%d",
			prevHead, r.Head(), prevFrontier, r.Frontier())
	}
	if r.Head() > r.Frontier() {
		t.Fatalf("head %d above frontier %d", r.Head(), r.Frontier())
	}
	if free := r.Free(); free < 0 || free > r.capacity {
		t.Fatalf("free %d outside [0, %d]", free, r.capacity)
	}
	gaps := r.Gaps()
	for i, g := range gaps {
		if g.Start >= g.End {
			t.Fatalf("gap %d empty or inverted: %+v", i, g)
		}
		if g.Start < r.Frontier() {
			t.Fatalf("gap %d starts at %d, below frontier %d", i, g.Start, r.Frontier())
		}
		if i > 0 && g.Start <= gaps[i-1].End {
			t.Fatalf("gaps %d and %d overlap or touch: %+v, %+v", i-1, i, gaps[i-1], g)
		}
	}
}
