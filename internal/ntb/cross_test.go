package ntb

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"xssd/internal/pcie"
	"xssd/internal/sim"
)

// crossPair is a two-member group with one bridge from a to b landing in a
// fixed-size sink, so nothing on the receiving side allocates.
type crossPair struct {
	g      *sim.Group
	a, b   *sim.Env
	br     *Bridge
	win    *Window
	target *sink
}

func newCrossPair(workers int, hop time.Duration) *crossPair {
	g := sim.NewGroup(sim.GroupConfig{Workers: workers})
	cp := &crossPair{g: g, a: g.NewEnv("a", 1), b: g.NewEnv("b", 2), target: &sink{mem: make([]byte, 8192)}}
	cp.br = NewBridgeTo(cp.a, cp.b, "a-b", DefaultBandwidth, hop, 1)
	cp.win = cp.br.NewWindow(cp.target, 0)
	return cp
}

// TestCrossBridgeSteadyStateZeroAlloc pins the slot rule's point: once the
// ring covers what one hop plus a quantum keeps in flight, a chunk crossing
// members allocates nothing — no payload copy, no closure — whether it is
// one line, a multi-chunk write, or a raw counter update. The bursts are
// issued from inside the run, so they take the mailbox path.
func TestCrossBridgeSteadyStateZeroAlloc(t *testing.T) {
	line := make([]byte, 64)
	big := make([]byte, 700) // three chunks
	for i := range big {
		big[i] = byte(i)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			cp := newCrossPair(workers, DefaultHopLatency)
			defer cp.g.Close()
			// Keep b busy so every quantum has two active members and, at
			// two workers, is shared with the helper.
			var busy func()
			busy = func() { cp.b.After(250*time.Nanosecond, busy) }
			cp.b.After(0, busy)
			// The multi-chunk write lands in a target that times each chunk,
			// its log sized for the whole run.
			landed := newLandingTarget(cp.b, len(big))
			landed.at = make([]time.Duration, 0, 1024)
			bigWin := cp.br.NewWindow(landed, 0)
			burst := func() {
				cp.win.Write(0, line)
				bigWin.Write(0, big)
				cp.win.WriteRaw(4096, line[:8], 16)
				for i := 0; i < 20; i++ {
					cp.win.Write(int64(64*i), line)
				}
			}
			const chunksPerBurst = 1 + 3 + 1 + 20
			round := func() {
				cp.a.At(cp.a.Now(), burst)
				cp.g.RunUntil(cp.g.Now() + 4*time.Microsecond)
			}
			for i := 0; i < 50; i++ { // warm-up: the ring, the outbox and the heaps grow here
				round()
			}
			slots := len(cp.br.slots)
			writes, bigs := cp.target.writes, len(landed.at)
			const rounds = 200
			allocs := testing.AllocsPerRun(rounds, round)
			if got := cp.target.writes - writes + len(landed.at) - bigs; got != (rounds+1)*chunksPerBurst {
				t.Fatalf("measured rounds landed %d chunks, want %d", got, (rounds+1)*chunksPerBurst)
			}
			if !bytes.Equal(landed.mem, big) {
				t.Fatal("the multi-chunk write landed corrupted")
			}
			for i := 3; i < len(landed.at); i += 3 {
				if gap := landed.at[i] - landed.at[i-3]; gap != 4*time.Microsecond {
					t.Fatalf("multi-chunk writes 4µs apart landed %v apart", gap)
				}
			}
			if allocs != 0 {
				t.Errorf("a burst of %d crossing chunks allocates %.1f objects, want 0", chunksPerBurst, allocs)
			}
			if len(cp.br.slots) != slots {
				t.Errorf("slot ring grew %d -> %d in steady state", slots, len(cp.br.slots))
			}
			if slots < chunksPerBurst || slots > 3*chunksPerBurst {
				t.Errorf("slot ring holds %d slots for bursts of %d", slots, chunksPerBurst)
			}
		})
	}
}

// TestCrossLandsAtClampedArrival covers a hop shorter than the quantum:
// the mailbox clamps the landing to the quantum's end, later than the
// link's own arrival time. With the default 1.1µs hop over the 1µs quantum
// nothing clamps and the chunk lands at its link arrival.
func TestCrossLandsAtClampedArrival(t *testing.T) {
	for _, tc := range []struct {
		hop     time.Duration
		clamped bool
	}{
		{200 * time.Nanosecond, true},
		{DefaultHopLatency, false},
	} {
		cp := newCrossPair(2, tc.hop)
		landed := newLandingTarget(cp.b, 128)
		win := cp.br.NewWindow(landed, 0)
		var sent time.Duration
		cp.a.At(10*time.Microsecond, func() {
			sent = cp.a.Now()
			win.Write(0, make([]byte, 64))
			win.WriteRaw(64, make([]byte, 8), 16)
		})
		cp.g.RunUntil(20 * time.Microsecond)
		cp.g.Close()
		if len(landed.at) != 2 {
			t.Fatalf("hop %v: %d chunks landed, want 2", tc.hop, len(landed.at))
		}
		wire := sent + tc.hop + cp.br.Link().SerializationTime(pcie.WireBytes(64))
		if got := landed.at[0]; (got > wire) != tc.clamped || got < wire {
			t.Errorf("hop %v: landed at %v, link arrival %v: want clamped = %v", tc.hop, got, wire, tc.clamped)
		}
	}
}

// TestSlotReclaimedAfterDroppedPost: the mailbox drops posts to a closed
// member, so their slots never land — they must still come back once the
// horizon passes the arrival they were stamped with, or a primary mirroring
// at a dead secondary would grow its ring for ever.
func TestSlotReclaimedAfterDroppedPost(t *testing.T) {
	cp := newCrossPair(2, DefaultHopLatency)
	defer cp.g.Close()
	line := make([]byte, 64)
	var tick func()
	tick = func() {
		for i := 0; i < 4; i++ {
			cp.win.Write(int64(64*i), line)
		}
		cp.a.After(500*time.Nanosecond, tick)
	}
	cp.a.After(0, tick)
	cp.g.RunUntil(100 * time.Microsecond)
	live := len(cp.br.slots)
	if cp.target.writes == 0 || live == 0 {
		t.Fatalf("nothing crossed before the close (writes %d, slots %d)", cp.target.writes, live)
	}
	cp.b.Close()
	writes := cp.target.writes
	cp.g.RunUntil(2 * time.Millisecond) // 15 000 more chunks, every one dropped
	if cp.target.writes != writes {
		t.Fatalf("%d chunks landed in a closed member", cp.target.writes-writes)
	}
	if got := len(cp.br.slots); got > live+8 {
		t.Errorf("slot ring grew %d -> %d while posting to a closed member", live, got)
	}
}

// TestUngroupedCrossBridgeNeverRecycles: with no group there is no horizon,
// so every chunk keeps a slot of its own — a later write must not rewrite
// bytes an earlier, still undelivered one lent out.
func TestUngroupedCrossBridgeNeverRecycles(t *testing.T) {
	a, b := sim.NewEnv(1), sim.NewEnv(2)
	target := &sink{mem: make([]byte, 1024)}
	win := NewDefaultBridgeTo(a, b, "a-b").NewWindow(target, 0)
	for i := 0; i < 8; i++ {
		win.Write(int64(64*i), []byte{byte(i + 1)})
		a.RunUntil(a.Now() + 10*time.Microsecond) // the sender's clock moves; b has not run
	}
	b.Run()
	for i := 0; i < 8; i++ {
		if target.mem[64*i] != byte(i+1) {
			t.Fatalf("chunk %d arrived as %d", i, target.mem[64*i])
		}
	}
}
