package pcie

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"xssd/internal/sim"
)

// tlp is one posted write as the target saw it.
type tlp struct {
	Addr int64
	Data []byte
}

// recorder is a Target that remembers every delivered write in order.
type recorder struct {
	writes []tlp
	mem    []byte
}

func newRecorder(size int) *recorder { return &recorder{mem: make([]byte, size)} }

func (r *recorder) MemWrite(off int64, data []byte) {
	r.writes = append(r.writes, tlp{Addr: off, Data: append([]byte(nil), data...)})
	copy(r.mem[off:], data)
}

func (r *recorder) MemRead(off int64, dst []byte) { copy(dst, r.mem[off:]) }

func testRegion(env *sim.Env, size int64) (*Region, *recorder) {
	link := env.NewLink("pcie", 4*Gen2.LaneBandwidth(), 200*time.Nanosecond)
	rec := newRecorder(int(size))
	return NewRegion(env, link, rec, size), rec
}

func TestGenerationBandwidth(t *testing.T) {
	if got := 4 * Gen2.LaneBandwidth(); got != 2e9 {
		t.Fatalf("x4 Gen2 = %v B/s, want 2e9", got)
	}
	if Gen3.LaneBandwidth() <= Gen2.LaneBandwidth() {
		t.Fatal("Gen3 not faster than Gen2")
	}
}

func TestUncachedStoreSplitsInto8ByteTLPs(t *testing.T) {
	env := sim.NewEnv(1)
	region, rec := testRegion(env, 4096)
	mm := NewMMIO(region, Uncached)
	env.Go("writer", func(p *sim.Proc) {
		mm.Store(p, 0, make([]byte, 24))
	})
	env.Run()
	if len(rec.writes) != 3 {
		t.Fatalf("TLPs = %d, want 3", len(rec.writes))
	}
	for i, w := range rec.writes {
		if len(w.Data) != 8 || w.Addr != int64(i*8) {
			t.Fatalf("TLP %d: addr=%d len=%d", i, w.Addr, len(w.Data))
		}
	}
}

func TestWriteCombiningCoalescesToLine(t *testing.T) {
	env := sim.NewEnv(1)
	region, rec := testRegion(env, 4096)
	mm := NewMMIO(region, WriteCombining)
	env.Go("writer", func(p *sim.Proc) {
		// 8 sequential 8-byte stores fill exactly one 64-byte line.
		for i := 0; i < 8; i++ {
			mm.Store(p, int64(i*8), []byte{0, 1, 2, 3, 4, 5, 6, 7})
		}
	})
	env.Run()
	if len(rec.writes) != 1 {
		t.Fatalf("TLPs = %d, want 1 (coalesced line)", len(rec.writes))
	}
	if len(rec.writes[0].Data) != WCLineSize {
		t.Fatalf("payload = %d, want %d", len(rec.writes[0].Data), WCLineSize)
	}
}

func TestWriteCombiningPartialLineNeedsFence(t *testing.T) {
	env := sim.NewEnv(1)
	region, rec := testRegion(env, 4096)
	mm := NewMMIO(region, WriteCombining)
	env.Go("writer", func(p *sim.Proc) {
		mm.Store(p, 0, make([]byte, 16))
		if len(rec.writes) != 0 {
			t.Error("partial line flushed without fence")
		}
		mm.Fence(p)
	})
	env.Run()
	if len(rec.writes) != 1 || len(rec.writes[0].Data) != 16 {
		t.Fatalf("writes = %+v, want one 16-byte TLP", rec.writes)
	}
}

func TestWriteCombiningDiscontiguousStoreSpills(t *testing.T) {
	env := sim.NewEnv(1)
	region, rec := testRegion(env, 4096)
	mm := NewMMIO(region, WriteCombining)
	env.Go("writer", func(p *sim.Proc) {
		mm.Store(p, 0, make([]byte, 8))
		mm.Store(p, 128, make([]byte, 8)) // jump: spills first buffer
		mm.Fence(p)
	})
	env.Run()
	if len(rec.writes) != 2 {
		t.Fatalf("TLPs = %d, want 2", len(rec.writes))
	}
	if rec.writes[0].Addr != 0 || rec.writes[1].Addr != 128 {
		t.Fatalf("addrs = %d,%d", rec.writes[0].Addr, rec.writes[1].Addr)
	}
}

func TestWriteCombiningRespectsLineAlignment(t *testing.T) {
	env := sim.NewEnv(1)
	region, rec := testRegion(env, 4096)
	mm := NewMMIO(region, WriteCombining)
	env.Go("writer", func(p *sim.Proc) {
		// Start mid-line at 60: 4 bytes close the line, the rest begin a
		// new one.
		mm.Store(p, 60, make([]byte, 12))
		mm.Fence(p)
	})
	env.Run()
	if len(rec.writes) != 2 {
		t.Fatalf("TLPs = %d, want 2", len(rec.writes))
	}
	if rec.writes[0].Addr != 60 || len(rec.writes[0].Data) != 4 {
		t.Fatalf("first TLP addr=%d len=%d, want 60/4", rec.writes[0].Addr, len(rec.writes[0].Data))
	}
	if rec.writes[1].Addr != 64 || len(rec.writes[1].Data) != 8 {
		t.Fatalf("second TLP addr=%d len=%d, want 64/8", rec.writes[1].Addr, len(rec.writes[1].Data))
	}
}

func TestWCBeatsUCOnWireTime(t *testing.T) {
	run := func(mode MMIOMode) time.Duration {
		env := sim.NewEnv(1)
		region, _ := testRegion(env, 1<<20)
		mm := NewMMIO(region, mode)
		var elapsed time.Duration
		env.Go("writer", func(p *sim.Proc) {
			start := p.Now()
			for i := 0; i < 1000; i++ {
				mm.Store(p, int64(i*64), make([]byte, 64))
			}
			mm.Fence(p)
			elapsed = p.Now() - start
		})
		env.Run()
		return elapsed
	}
	uc, wc := run(Uncached), run(WriteCombining)
	if wc >= uc {
		t.Fatalf("WC (%v) not faster than UC (%v)", wc, uc)
	}
	// UC stores stall the CPU for the full delivery (wire + link latency)
	// of each 8-byte TLP, while WC posts one 84-byte TLP per line: the gap
	// is dominated by 8 stalls x link latency per line, roughly 40x here.
	if ratio := float64(uc) / float64(wc); ratio < 10 {
		t.Fatalf("UC/WC ratio = %.2f, want the large stall-dominated gap", ratio)
	}
}

func TestRegionReadRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	region, rec := testRegion(env, 4096)
	copy(rec.mem[100:], []byte("counter!"))
	mm := NewMMIO(region, Uncached)
	var got []byte
	var took time.Duration
	env.Go("reader", func(p *sim.Proc) {
		start := p.Now()
		got = mm.Load(p, 100, 8)
		took = p.Now() - start
	})
	env.Run()
	if string(got) != "counter!" {
		t.Fatalf("read %q", got)
	}
	if took < 400*time.Nanosecond { // two link latencies minimum
		t.Fatalf("round trip took %v, expected at least 2x link latency", took)
	}
}

func TestDMAReadWrite(t *testing.T) {
	env := sim.NewEnv(1)
	link := env.NewLink("pcie", 2e9, 200*time.Nanosecond)
	host := NewHostMemory(8192)
	copy(host.Bytes()[1000:], []byte("log record payload"))
	fetched := make([]byte, 18)
	env.Go("device", func(p *sim.Proc) {
		host.DMAReadInto(p, link, 1000, fetched)
		host.DMAWrite(p, link, 4000, []byte("completion data"))
	})
	env.Run()
	if string(fetched) != "log record payload" {
		t.Fatalf("DMAReadInto got %q", fetched)
	}
	if string(host.Bytes()[4000:4015]) != "completion data" {
		t.Fatalf("DMAWrite result %q", host.Bytes()[4000:4015])
	}
}

// property: for any store sequence, WC+fence delivers exactly the same
// bytes to the device as UC, just in different packetization.
func TestQuickWCAndUCDeliverSameBytes(t *testing.T) {
	f := func(seed int64) bool {
		deliver := func(mode MMIOMode) []byte {
			env := sim.NewEnv(1)
			region, rec := testRegion(env, 1<<16)
			mm := NewMMIO(region, mode)
			rng := rand.New(rand.NewSource(seed))
			env.Go("w", func(p *sim.Proc) {
				off := int64(0)
				for i := 0; i < 50; i++ {
					n := rng.Intn(100) + 1
					chunk := make([]byte, n)
					rng.Read(chunk)
					mm.Store(p, off, chunk)
					off += int64(n)
				}
				mm.Fence(p)
			})
			env.Run()
			return rec.mem
		}
		return bytes.Equal(deliver(Uncached), deliver(WriteCombining))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
