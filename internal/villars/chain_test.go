package villars_test

import (
	"bytes"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"xssd/internal/pcie"
	"xssd/internal/sim"
	"xssd/internal/villars"
	"xssd/internal/xapi"
)

// The per-line budget, measured where it is made: one 64-byte line crossing
// xapi → pcie → cmb → persist is the simulator's inner loop (DESIGN.md §9,
// fifth rule), so what a line costs in events, process switches and
// allocations is pinned here, on the paper's default SRAM device.

// caughtUp appends a first record and waits until the ring is destaged and
// released, so the destage loop is parked waiting for data — the state in
// which every persisted line used to wake it.
func caughtUp(t testing.TB, p *sim.Proc, l *xapi.Logger, d *villars.Device) {
	l.XPwrite(p, make([]byte, 4096))
	if err := l.XFsync(p); err != nil {
		t.Fatalf("warm-up fsync: %v", err)
	}
	p.WaitFor(d.Destage().Advanced, func() bool { return d.Destage().DestagedStream() == l.Written() })
}

// TestChunkChainBudget: an XPwrite + XFsync on a caught-up device costs at
// most 5 events per 64-byte line — the host's step, the delivery, two drain
// steps, the persist — plus a constant for the fsync's register reads and
// the page carve, and a constant number of process switches: none per line.
// Before the chain was callbacks it was 6 events and 4 switches a line.
func TestChunkChainBudget(t *testing.T) {
	const perAppendEvents, perAppendSwitches = 48, 12
	for _, size := range []int{4 << 10, 16 << 10} {
		env := sim.NewEnv(1)
		d := villars.New(env, villars.DefaultConfig("a"), pcie.NewHostMemory(1<<20))
		var events, switches int64
		env.Go("host", func(p *sim.Proc) {
			l := xapi.Open(p, d, xapi.Options{})
			caughtUp(t, p, l, d)
			events, switches = env.Events(), env.Switches()
			l.XPwrite(p, make([]byte, size))
			if err := l.XFsync(p); err != nil {
				t.Errorf("fsync: %v", err)
			}
			events, switches = env.Events()-events, env.Switches()-switches
		})
		env.RunUntil(50 * time.Millisecond)
		env.Close()
		lines := int64(size / pcie.WCLineSize)
		t.Logf("%d lines: %d events (%.2f per line), %d process switches", lines, events, float64(events)/float64(lines), switches)
		if events == 0 || events > 5*lines+perAppendEvents {
			t.Errorf("%d-byte append: %d events for %d lines, want at most 5 per line + %d", size, events, lines, perAppendEvents)
		}
		if switches > perAppendSwitches {
			t.Errorf("%d-byte append: %d process switches for %d lines, want at most %d however many lines", size, switches, lines, perAppendSwitches)
		}
	}
}

// BenchmarkChunkChain reports wall time and allocations per 64-byte line
// through xapi → pcie → cmb → persist, in 16 KB appends each followed by an
// fsync and a pause that lets destaging keep up (an append stalled on
// credit measures register polling, not the chain). The per-line path
// allocates nothing; what is left is per fsync poll and per destaged page,
// a few hundredths of an object per line, and must stay there.
func BenchmarkChunkChain(b *testing.B) {
	const append16K = 16 << 10
	const linesPerAppend = append16K / pcie.WCLineSize
	// A page takes ≈650 µs to program and the 128 KB ring lends out 96 KB
	// of credit, so anything over six appends per page time stalls on it.
	const pause = 200 * time.Microsecond
	env := sim.NewEnv(1)
	defer env.Close()
	d := villars.New(env, villars.DefaultConfig("bench"), pcie.NewHostMemory(1<<20))
	payload := make([]byte, append16K)
	appends := (b.N + linesPerAppend - 1) / linesPerAppend
	var mallocs uint64
	b.ReportAllocs()
	env.Go("host", func(p *sim.Proc) {
		l := xapi.Open(p, d, xapi.Options{})
		caughtUp(b, p, l, d)
		for i := 0; i < 8; i++ { // grow every queue and free list to its working size
			l.XPwrite(p, payload)
			if err := l.XFsync(p); err != nil {
				b.Errorf("fsync: %v", err)
			}
			p.Sleep(pause)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs
		b.ResetTimer()
		for i := 0; i < appends; i++ {
			l.XPwrite(p, payload)
			if err := l.XFsync(p); err != nil {
				b.Errorf("fsync: %v", err)
			}
			p.Sleep(pause)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs - mallocs
	})
	env.RunUntil(time.Duration(appends+16) * time.Millisecond)
	if got := d.CMB().BytesIn(); got < int64(appends*append16K) {
		b.Fatalf("device took %d bytes, want at least %d", got, appends*append16K)
	}
	perLine := float64(mallocs) / float64(appends*linesPerAppend)
	b.ReportMetric(perLine, "allocs/line")
	if appends >= 16 && perLine >= 0.25 {
		b.Fatalf("%.3f allocations per 64-byte line over %d appends; the per-line path must allocate nothing", perLine, appends)
	}
}

// TestPowerLossMidTrain cuts the power while a store's train of lines is
// half sent. The host cannot know: it keeps posting, the lines still on the
// wire and the ones posted later arrive at a dead device and are counted as
// rejected, and Store returns when the last line has left. All of it must
// be what k one-line stores do, down to the pages recovery reads back.
func TestPowerLossMidTrain(t *testing.T) {
	const lines = 200
	stream := make([]byte, lines*pcie.WCLineSize)
	for i := range stream {
		stream[i] = byte(i*7 + i>>8)
	}
	type outcome struct {
		returned           time.Duration
		bytesIn, rejected  int64
		destaged           int64
		recovered          uint64 // hash of the payload read back from flash
		recoveredIsAPrefix bool
	}
	run := func(oneByOne bool) outcome {
		env := sim.NewEnv(1)
		defer env.Close()
		d := villars.New(env, villars.DefaultConfig("a"), pcie.NewHostMemory(1<<20))
		mm := pcie.NewMMIO(d.DataRegion(), pcie.WriteCombining)
		lineTime := d.Link().SerializationTime(pcie.WireBytes(pcie.WCLineSize))
		var o outcome
		env.Go("host", func(p *sim.Proc) {
			p.Sleep(time.Microsecond)
			if oneByOne {
				for off := 0; off < len(stream); off += pcie.WCLineSize {
					mm.Store(p, int64(off), stream[off:off+pcie.WCLineSize])
				}
			} else {
				mm.Store(p, 0, stream)
			}
			o.returned = p.Now()
		})
		// On a line boundary, where the cut ties with the host's next post.
		env.At(time.Microsecond+lines/2*lineTime, d.InjectPowerLoss)
		env.RunUntil(200 * time.Millisecond)
		if !d.Drained() {
			t.Fatalf("oneByOne=%v: crash protocol did not finish", oneByOne)
		}
		o.bytesIn, o.rejected = d.CMB().BytesIn(), d.CMB().Rejected()
		o.destaged = d.Destage().DestagedStream()

		var got []byte
		env.Go("recover", func(p *sim.Proc) {
			base, count := d.Destage().LBARing()
			for slot := int64(0); slot < d.Destage().TailLBA(); slot++ {
				page, err := d.FTL().Read(p, base+slot%count)
				if err != nil {
					t.Errorf("read slot %d: %v", slot, err)
					return
				}
				_, n, ok := villars.DecodePageHeader(page)
				if !ok {
					t.Errorf("slot %d is not a destage page", slot)
					return
				}
				got = append(got, page[villars.PageHeaderLen:villars.PageHeaderLen+n]...)
			}
		})
		env.RunUntil(env.Now() + 50*time.Millisecond)
		h := fnv.New64a()
		h.Write(got)
		o.recovered = h.Sum64()
		o.recoveredIsAPrefix = int64(len(got)) == o.destaged && bytes.Equal(got, stream[:len(got)])
		return o
	}
	train, ref := run(false), run(true)
	if train != ref {
		t.Fatalf("power loss mid-train differs from the one-line stores:\n train: %+v\n lines: %+v", train, ref)
	}
	if !train.recoveredIsAPrefix {
		t.Error("flash does not hold a prefix of the stream")
	}
	if train.rejected == 0 || train.bytesIn+train.rejected*pcie.WCLineSize != int64(len(stream)) {
		t.Errorf("%d bytes accepted + %d lines rejected, want them to add up to the %d bytes stored with some rejected", train.bytesIn, train.rejected, len(stream))
	}
	if train.destaged != train.bytesIn {
		t.Errorf("destaged %d of the %d bytes accepted before the cut", train.destaged, train.bytesIn)
	}
}
