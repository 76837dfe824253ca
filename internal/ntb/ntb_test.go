package ntb

import (
	"bytes"
	"testing"
	"time"

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

func (s *sink) MemRead(off int64, n int) []byte {
	out := make([]byte, n)
	copy(out, s.mem[off:])
	return out
}

func TestWindowWriteDelivers(t *testing.T) {
	env := sim.NewEnv(1)
	br := NewDefaultBridgeTo(env, env, "a-b")
	target := &sink{mem: make([]byte, 8192)}
	win := br.NewWindow(target, 1024)
	payload := make([]byte, 700)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var doneAt time.Duration
	env.Go("mirror", func(p *sim.Proc) {
		win.Write(0, payload, func() { doneAt = env.Now() })
	})
	env.Run()
	if !bytes.Equal(target.mem[1024:1024+700], payload) {
		t.Fatal("payload corrupted across bridge")
	}
	if target.writes != 3 { // 700 bytes / 256 max payload
		t.Fatalf("TLPs = %d, want 3", target.writes)
	}
	if doneAt < DefaultHopLatency {
		t.Fatalf("delivered at %v, before hop latency %v", doneAt, DefaultHopLatency)
	}
}

func TestDaisyChainAddsLatency(t *testing.T) {
	delivery := func(hops int) time.Duration {
		env := sim.NewEnv(1)
		br := NewBridgeTo(env, env, "chain", DefaultBandwidth, DefaultHopLatency, hops)
		target := &sink{mem: make([]byte, 1024)}
		win := br.NewWindow(target, 0)
		var at time.Duration
		env.Go("m", func(p *sim.Proc) {
			win.Write(0, []byte{1}, func() { at = env.Now() })
		})
		env.Run()
		return at
	}
	one, two := delivery(1), delivery(2)
	if two-one != DefaultHopLatency {
		t.Fatalf("2-hop minus 1-hop = %v, want one hop latency %v", two-one, DefaultHopLatency)
	}
}

func TestHopsFloorAtOne(t *testing.T) {
	env := sim.NewEnv(1)
	br := NewBridgeTo(env, env, "x", DefaultBandwidth, DefaultHopLatency, 0)
	if br.hops != 1 {
		t.Fatalf("hops = %d, want clamped to 1", br.hops)
	}
}
