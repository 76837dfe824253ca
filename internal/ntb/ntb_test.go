package ntb

import (
	"bytes"
	"testing"
	"time"

	"xssd/internal/pcie"
	"xssd/internal/sim"
)

type sink struct {
	mem    []byte
	writes int
}

func (s *sink) MemWrite(off int64, data []byte) {
	copy(s.mem[off:], data)
	s.writes++
}

func (s *sink) MemRead(off int64, dst []byte) { copy(dst, s.mem[off:]) }

// landingTarget is a sink that also records when each write reached it, on
// its own Env's clock.
type landingTarget struct {
	sink
	env *sim.Env
	at  []time.Duration
}

func newLandingTarget(env *sim.Env, size int) *landingTarget {
	return &landingTarget{sink: sink{mem: make([]byte, size)}, env: env}
}

func (l *landingTarget) MemWrite(off int64, data []byte) {
	l.sink.MemWrite(off, data)
	l.at = append(l.at, l.env.Now())
}

func TestWindowWriteDelivers(t *testing.T) {
	env := sim.NewEnv(1)
	br := NewDefaultBridgeTo(env, env, "a-b")
	target := newLandingTarget(env, 8192)
	win := br.NewWindow(target, 1024)
	payload := make([]byte, 700)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	env.Go("mirror", func(p *sim.Proc) {
		win.Write(0, payload)
	})
	env.Run()
	if !bytes.Equal(target.mem[1024:1024+700], payload) {
		t.Fatal("payload corrupted across bridge")
	}
	if target.writes != 3 { // 700 bytes / 256 max payload
		t.Fatalf("TLPs = %d, want 3", target.writes)
	}
	if last := target.at[len(target.at)-1]; last < DefaultHopLatency {
		t.Fatalf("delivered at %v, before hop latency %v", last, DefaultHopLatency)
	}
}

// hopDelivery returns when a one-byte write lands across a bridge built
// with the given hop count.
func hopDelivery(hops int) time.Duration {
	env := sim.NewEnv(1)
	br := NewBridgeTo(env, env, "chain", DefaultBandwidth, DefaultHopLatency, hops)
	target := newLandingTarget(env, 1024)
	win := br.NewWindow(target, 0)
	env.Go("m", func(p *sim.Proc) {
		win.Write(0, []byte{1})
	})
	env.Run()
	return target.at[0]
}

func TestDaisyChainAddsLatency(t *testing.T) {
	one, two := hopDelivery(1), hopDelivery(2)
	if two-one != DefaultHopLatency {
		t.Fatalf("2-hop minus 1-hop = %v, want one hop latency %v", two-one, DefaultHopLatency)
	}
}

func TestHopsFloorAtOne(t *testing.T) {
	one := hopDelivery(1)
	for _, hops := range []int{0, -2} {
		if got := hopDelivery(hops); got != one {
			t.Errorf("%d hops: delivered at %v, want the one-hop %v", hops, got, one)
		}
	}
}

// selfBridge is a lone-member group with one bridge whose two ends are its
// member: the placement of the devices of one xssd.System.
type selfBridge struct {
	g      *sim.Group
	env    *sim.Env
	br     *Bridge
	win    *Window
	target *landingTarget
}

func newSelfBridge() *selfBridge {
	g := sim.NewGroup(sim.GroupConfig{})
	env := g.NewEnv("m0", 1)
	sb := &selfBridge{g: g, env: env, br: NewDefaultBridgeTo(env, env, "self"), target: newLandingTarget(env, 8192)}
	sb.win = sb.br.NewWindow(sb.target, 0)
	return sb
}

// TestSelfBridgeLandsAtLinkArrival: a bridge that posts to its own Env
// lands every chunk at the instant its link delivers it — queueing behind
// earlier chunks, serialization and hop latency, no barrier clamp — for
// multi-chunk writes, back-to-back bursts and raw counter updates alike.
func TestSelfBridgeLandsAtLinkArrival(t *testing.T) {
	sb := newSelfBridge()
	defer sb.g.Close()
	link := sb.br.Link()
	var want []time.Duration
	var busy time.Duration // the link is free from here on
	send := func(wire int) {
		start := max(sb.env.Now(), busy)
		busy = start + link.SerializationTime(wire)
		want = append(want, busy+DefaultHopLatency)
	}
	payload := make([]byte, 700)
	for i := 0; i < 40; i++ {
		sb.env.At(time.Duration(i)*1700*time.Nanosecond, func() {
			for off := 0; off < len(payload); off += pcie.MaxPayload {
				send(pcie.WireBytes(min(pcie.MaxPayload, len(payload)-off)))
			}
			sb.win.Write(0, payload)
			send(16)
			sb.win.WriteRaw(4096, payload[:8], 16)
		})
	}
	sb.g.RunUntil(time.Millisecond)
	if len(sb.target.at) != len(want) {
		t.Fatalf("%d chunks landed, want %d", len(sb.target.at), len(want))
	}
	for i, at := range sb.target.at {
		if at != want[i] {
			t.Fatalf("chunk %d landed at %v, its link arrival is %v", i, at, want[i])
		}
	}
}

// TestSelfBridgeSlotsStayBounded: in a lone-member group the settled
// horizon advances, so a bridge to its own Env reuses its slots — 10 000
// chunks need no more slots than the first few hundred did.
func TestSelfBridgeSlotsStayBounded(t *testing.T) {
	sb := newSelfBridge()
	defer sb.g.Close()
	line := make([]byte, 64)
	const chunks = 10000
	var tick func()
	sent := 0
	tick = func() {
		for i := 0; i < 4 && sent < chunks; i++ {
			sb.win.Write(int64(64*i), line)
			sent++
		}
		if sent < chunks {
			sb.env.After(500*time.Nanosecond, tick)
		}
	}
	sb.env.After(0, tick)
	sb.g.RunUntil(50 * time.Microsecond)
	early := len(sb.br.slots)
	sb.g.RunUntil(10 * time.Millisecond)
	if sb.target.writes != chunks {
		t.Fatalf("%d chunks landed, want %d", sb.target.writes, chunks)
	}
	if got := len(sb.br.slots); got != early || got > 32 {
		t.Errorf("slot ring holds %d slots after %d chunks (%d after the first 400)", got, chunks, early)
	}
}

// TestSelfBridgeSteadyStateZeroAlloc: once the ring covers a hop and a
// quantum of traffic, a chunk a bridge posts to its own Env allocates
// nothing, like one that crosses members.
func TestSelfBridgeSteadyStateZeroAlloc(t *testing.T) {
	sb := newSelfBridge()
	defer sb.g.Close()
	sb.target.at = make([]time.Duration, 0, 1<<16)
	line := make([]byte, 64)
	big := make([]byte, 700) // three chunks
	burst := func() {
		sb.win.Write(0, line)
		sb.win.Write(1024, big)
		sb.win.WriteRaw(4096, line[:8], 16)
		for i := 0; i < 20; i++ {
			sb.win.Write(int64(64*i), line)
		}
	}
	round := func() {
		sb.env.At(sb.env.Now(), burst)
		sb.g.RunUntil(sb.g.Now() + 4*time.Microsecond)
	}
	for i := 0; i < 50; i++ {
		round()
	}
	slots := len(sb.br.slots)
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("a burst of 25 chunks allocates %.1f objects, want 0", allocs)
	}
	if len(sb.br.slots) != slots {
		t.Errorf("slot ring grew %d -> %d in steady state", slots, len(sb.br.slots))
	}
}
