package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"xssd/internal/nand"
	"xssd/internal/pcie"
	"xssd/internal/pm"
	"xssd/internal/sim"
	"xssd/internal/villars"
)

func TestRecordEncodeDecodeRoundTrip(t *testing.T) {
	r := Record{TxID: 42, Payload: []byte("update stock set qty=qty-1")}
	buf := r.Encode(nil)
	if len(buf) != EncodedLen(len(r.Payload)) {
		t.Fatalf("encoded length %d", len(buf))
	}
	got, n, err := Decode(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: %v, n=%d", err, n)
	}
	if got.TxID != 42 || !bytes.Equal(got.Payload, r.Payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, _, err := Decode(make([]byte, 32)); err == nil {
		t.Fatal("bad magic accepted")
	}
	r := Record{TxID: 1, Payload: make([]byte, 100)}
	buf := r.Encode(nil)
	if _, _, err := Decode(buf[:20]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestDecodeAllStopsAtTruncation(t *testing.T) {
	var buf []byte
	for i := 0; i < 5; i++ {
		buf = Record{TxID: int64(i), Payload: []byte{byte(i)}}.Encode(buf)
	}
	full := DecodeAll(buf)
	if len(full) != 5 {
		t.Fatalf("decoded %d records", len(full))
	}
	for i, r := range full {
		if r.TxID != int64(i) {
			t.Fatalf("record %d txid %d", i, r.TxID)
		}
	}
	cut := DecodeAll(buf[:len(buf)-3]) // chop the tail record
	if len(cut) != 4 {
		t.Fatalf("truncated stream decoded %d records, want 4", len(cut))
	}
}

// property: any record sequence survives encode/DecodeAll with LSNs that
// are strictly increasing and match encoded offsets.
func TestQuickStreamRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%20) + 1
		var buf []byte
		var want []Record
		for i := 0; i < count; i++ {
			p := make([]byte, rng.Intn(200))
			rng.Read(p)
			r := Record{TxID: rng.Int63(), Payload: p}
			want = append(want, r)
			buf = r.Encode(buf)
		}
		got := DecodeAll(buf)
		if len(got) != count {
			return false
		}
		lsn := int64(-1)
		for i := range got {
			if got[i].TxID != want[i].TxID || !bytes.Equal(got[i].Payload, want[i].Payload) {
				return false
			}
			if got[i].LSN <= lsn {
				return false
			}
			lsn = got[i].LSN
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// countingSink records batches and simulates a fixed write latency.
type countingSink struct {
	batches [][]byte
	delay   time.Duration
}

func (s *countingSink) Write(p *sim.Proc, data []byte) error {
	p.Sleep(s.delay)
	s.batches = append(s.batches, append([]byte(nil), data...))
	return nil
}

func (s *countingSink) Name() string { return "counting" }

// commit appends r and blocks until it is durable: the transaction commit
// path.
func commit(p *sim.Proc, l *Log, r Record) int64 {
	lsn := l.Append(r)
	l.WaitDurable(p, lsn)
	return lsn
}

func TestGroupCommitBatchesBySize(t *testing.T) {
	env := sim.NewEnv(1)
	sink := &countingSink{delay: 10 * time.Microsecond}
	log := NewLog(env, sink, Config{GroupBytes: 1024, GroupTimeout: time.Millisecond})
	const workers = 8
	committed := 0
	for w := 0; w < workers; w++ {
		w := w
		env.Go("worker", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				commit(p, log, Record{TxID: int64(w*100 + i), Payload: make([]byte, 100)})
				committed++
			}
		})
	}
	env.RunUntil(time.Second)
	if committed != workers*10 {
		t.Fatalf("committed = %d", committed)
	}
	// 80 records x 114 bytes = 9120 bytes; with 1 KB groups there should
	// be far fewer flushes than records.
	if len(sink.batches) >= 80 || len(sink.batches) == 0 {
		t.Fatalf("flushes = %d, expected batching", len(sink.batches))
	}
	var total int
	for _, b := range sink.batches {
		total += len(b)
	}
	if total != 80*EncodedLen(100) {
		t.Fatalf("flushed bytes = %d", total)
	}
}

func TestGroupCommitTimeoutBoundsLatency(t *testing.T) {
	env := sim.NewEnv(1)
	sink := &countingSink{}
	log := NewLog(env, sink, Config{GroupBytes: 1 << 20, GroupTimeout: time.Millisecond})
	var commitAt time.Duration
	env.Go("worker", func(p *sim.Proc) {
		commit(p, log, Record{TxID: 1, Payload: []byte("lonely")})
		commitAt = p.Now()
	})
	env.RunUntil(time.Second)
	if commitAt == 0 {
		t.Fatal("commit never returned")
	}
	if commitAt < time.Millisecond || commitAt > 2*time.Millisecond {
		t.Fatalf("lone commit at %v, want ~1ms (timeout-bounded)", commitAt)
	}
}

func TestCommitWaitsForDurability(t *testing.T) {
	env := sim.NewEnv(1)
	sink := &countingSink{delay: 500 * time.Microsecond}
	log := NewLog(env, sink, Config{GroupBytes: 1, GroupTimeout: time.Millisecond})
	var commitAt time.Duration
	env.Go("worker", func(p *sim.Proc) {
		commit(p, log, Record{TxID: 1, Payload: []byte("x")})
		commitAt = p.Now()
	})
	env.RunUntil(time.Second)
	if commitAt < 500*time.Microsecond {
		t.Fatalf("commit acked at %v, before sink delay", commitAt)
	}
	if log.DurableLSN() != int64(EncodedLen(1)) {
		t.Fatalf("durable LSN = %d", log.DurableLSN())
	}
}

// failOnceSink fails its first write with a plain error (not ErrSinkLost)
// and accepts every later one.
type failOnceSink struct {
	countingSink
	failed bool
}

var errSinkBroke = errors.New("sink broke")

func (s *failOnceSink) Write(p *sim.Proc, data []byte) error {
	if !s.failed {
		s.failed = true
		return errSinkBroke
	}
	return s.countingSink.Write(p, data)
}

// TestFailedSinkHaltsTheLog: a sink error other than ErrSinkLost halts the
// log the way a lost sink does — no panic, the durable horizon frozen, the
// failed batch kept for Resume, every waiter released — and Err reports
// the error.
func TestFailedSinkHaltsTheLog(t *testing.T) {
	env := sim.NewEnv(1)
	sink := &failOnceSink{}
	log := NewLog(env, sink, Config{GroupBytes: 1, GroupTimeout: time.Millisecond})
	var (
		durable, returned bool
	)
	env.Go("worker", func(p *sim.Proc) {
		lsn := log.Append(Record{TxID: 1, Payload: []byte("x")})
		durable = log.WaitDurableOrDead(p, lsn)
		returned = true
	})
	env.RunUntil(time.Second)
	if !returned {
		t.Fatal("WaitDurableOrDead still blocked after the sink failed")
	}
	if durable {
		t.Error("WaitDurableOrDead reported a record durable that the sink failed")
	}
	if !log.Dead() {
		t.Error("log not dead after a failed sink write")
	}
	if err := log.Err(); !errors.Is(err, errSinkBroke) || errors.Is(err, ErrSinkLost) {
		t.Errorf("Err() = %v, want it to wrap %v and not ErrSinkLost", err, errSinkBroke)
	}
	if log.DurableLSN() != 0 || log.Backlog() != int64(EncodedLen(1)) {
		t.Errorf("durable %d, backlog %d: want the failed batch back in the buffer", log.DurableLSN(), log.Backlog())
	}

	// The kept batch re-drives through a fresh sink, and Err clears.
	next := &countingSink{}
	env.Go("resume", func(p *sim.Proc) {
		if _, err := log.Resume(p, next, 0); err != nil {
			t.Errorf("resume: %v", err)
		}
	})
	env.RunUntil(2 * time.Second)
	got := bytes.Join(next.batches, nil)
	if log.Dead() || log.Err() != nil || log.DurableLSN() != int64(EncodedLen(1)) || len(got) != EncodedLen(1) {
		t.Errorf("after resume: dead %v, err %v, durable %d, %d bytes re-driven", log.Dead(), log.Err(), log.DurableLSN(), len(got))
	}
}

func testDevice(env *sim.Env, name string) (*villars.Device, *pcie.HostMemory) {
	cfg := villars.DefaultConfig(name)
	cfg.Geometry = nand.Geometry{Channels: 2, WaysPerChan: 2, BlocksPerDie: 32, PagesPerBlock: 32, PageSize: 2048}
	cfg.Timing = nand.Timing{TRead: 5 * time.Microsecond, TProg: 20 * time.Microsecond, TErase: 100 * time.Microsecond, BusRate: 1e9}
	cfg.QueueSize = 4096
	cfg.CMBSize = 64 << 10
	host := pcie.NewHostMemory(1 << 20)
	return villars.New(env, cfg, host), host
}

func TestVillarsSinkEndToEnd(t *testing.T) {
	env := sim.NewEnv(1)
	dev, _ := testDevice(env, "a")
	done := false
	env.Go("db", func(p *sim.Proc) {
		sink := NewVillarsSink(p, dev, "Villars-SRAM")
		log := NewLog(env, sink, Config{GroupBytes: 512, GroupTimeout: time.Millisecond})
		for i := 0; i < 20; i++ {
			commit(p, log, Record{TxID: int64(i), Payload: make([]byte, 64)})
		}
		done = true
	})
	env.RunUntil(time.Second)
	if !done {
		t.Fatal("commits did not finish")
	}
	if dev.Stats().CMB.BytesIn != 20*int64(EncodedLen(64)) {
		t.Fatalf("device saw %d bytes", dev.Stats().CMB.BytesIn)
	}
}

func TestNVMeSinkEndToEnd(t *testing.T) {
	env := sim.NewEnv(1)
	dev, host := testDevice(env, "a")
	done := false
	env.Go("db", func(p *sim.Proc) {
		sink := NewNVMeSink(dev, host, 1<<18, 0, 64)
		log := NewLog(env, sink, Config{GroupBytes: 2048, GroupTimeout: time.Millisecond})
		for i := 0; i < 10; i++ {
			commit(p, log, Record{TxID: int64(i), Payload: make([]byte, 512)})
		}
		done = true
	})
	env.RunUntil(time.Second)
	if !done {
		t.Fatal("commits did not finish")
	}
	// The conventional side must have received the block writes.
	if _, progs, _ := dev.Array().Stats(); progs == 0 {
		t.Fatal("no flash programs from the NVMe log path")
	}
}

func TestMemorySinkFasterThanNVMeSink(t *testing.T) {
	latency := func(mk func(env *sim.Env, p *sim.Proc) Sink) time.Duration {
		env := sim.NewEnv(1)
		var total time.Duration
		env.Go("db", func(p *sim.Proc) {
			sink := mk(env, p)
			log := NewLog(env, sink, Config{GroupBytes: 2048, GroupTimeout: 100 * time.Microsecond})
			for i := 0; i < 20; i++ {
				t0 := p.Now()
				commit(p, log, Record{TxID: int64(i), Payload: make([]byte, 256)})
				total += p.Now() - t0
			}
		})
		env.RunUntil(5 * time.Second)
		return total
	}
	mem := latency(func(env *sim.Env, p *sim.Proc) Sink { return NewMemorySink(env, pm.NVDIMMSpec) })
	nvme := latency(func(env *sim.Env, p *sim.Proc) Sink {
		dev, host := testDevice(env, "a")
		return NewNVMeSink(dev, host, 1<<18, 0, 256)
	})
	if mem >= nvme {
		t.Fatalf("Memory sink (%v) not faster than NVMe sink (%v)", mem, nvme)
	}
}

// stampSink records when each flush reached the sink.
type stampSink struct{ at []time.Duration }

func (s *stampSink) Write(p *sim.Proc, data []byte) error {
	s.at = append(s.at, p.Now())
	return nil
}

func (s *stampSink) Name() string { return "stamp" }

// TestGroupTimeoutArmsOneTimerPerDeadline appends n small records, far
// below GroupBytes, then nothing. Every append wakes the flusher to the
// same deadline, oldestWait + GroupTimeout; the flush must start at exactly
// that instant, and the quiet stretch before it must cost the same few
// events whatever n was — one timer per deadline, not one per append.
func TestGroupTimeoutArmsOneTimerPerDeadline(t *testing.T) {
	eventsToFlush := func(n int) int64 {
		env := sim.NewEnv(1)
		defer env.Close()
		sink := &stampSink{}
		log := NewLog(env, sink, Config{GroupBytes: 1 << 20, GroupTimeout: time.Millisecond})
		const first, gap = 3 * time.Microsecond, time.Microsecond
		env.Go("appender", func(p *sim.Proc) {
			p.Sleep(first)
			for i := 0; i < n; i++ {
				log.Append(Record{TxID: int64(i), Payload: []byte("small")})
				p.Sleep(gap)
			}
		})
		env.RunUntil(first + time.Duration(n)*gap)
		if got, want := log.AppendedLSN(), int64(n*EncodedLen(5)); got != want {
			t.Fatalf("n=%d: appended %d bytes, want %d", n, got, want)
		}
		quiet := env.Events()
		deadline := first + time.Millisecond // oldestWait is the first append

		env.RunUntil(deadline - 1)
		if len(sink.at) != 0 {
			t.Fatalf("n=%d: flushed at %v, before oldestWait + GroupTimeout (%v)", n, sink.at[0], deadline)
		}
		env.RunUntil(deadline)
		if len(sink.at) != 1 || sink.at[0] != deadline {
			t.Fatalf("n=%d: flushes at %v, want one at %v", n, sink.at, deadline)
		}
		if log.DurableLSN() != log.AppendedLSN() {
			t.Fatalf("n=%d: durable %d of %d appended bytes", n, log.DurableLSN(), log.AppendedLSN())
		}
		return env.Events() - quiet
	}
	few, many := eventsToFlush(10), eventsToFlush(200)
	if few != many || few > 4 {
		t.Fatalf("events from the last append to the flush: %d after 10 appends, %d after 200; want the same small count", few, many)
	}
}

// holdSink accepts writes at once, except write number hold, which it
// holds for good: a sink behind an eager secondary that lost power.
type holdSink struct {
	writes, hold int
	never        *sim.Signal
}

func (s *holdSink) Write(p *sim.Proc, data []byte) error {
	if s.writes++; s.writes == s.hold {
		p.Wait(s.never)
	}
	return nil
}

func (s *holdSink) Name() string { return "hold" }

// TestStreamRangeServesTheBatchInFlight: while a sink write is
// outstanding its batch is neither retained nor in the accumulator, and
// StreamRange serves it from the flush buffer. Three 256-byte batches
// flush, the fourth is held, and 344 bytes wait behind it.
func TestStreamRangeServesTheBatchInFlight(t *testing.T) {
	for _, retain := range []bool{true, false} {
		env := sim.NewEnv(1)
		sink := &holdSink{hold: 4, never: env.NewSignal()}
		log := NewLog(env, sink, Config{GroupBytes: 256, GroupTimeout: time.Millisecond, Retain: retain})
		var want []byte
		env.Go("appender", func(p *sim.Proc) {
			for i := 0; i < 12; i++ {
				r := Record{TxID: int64(i + 1), Payload: bytes.Repeat([]byte{byte(i + 1)}, 100)}
				want = r.Encode(want)
				log.Append(r)
			}
		})
		env.RunUntil(time.Millisecond)
		if log.DurableLSN() != 768 || log.AppendedLSN() != 1368 || sink.writes != 4 {
			t.Fatalf("retain %v: durable %d, appended %d, %d writes: want 768, 1368, 4 (the fourth held)", retain, log.DurableLSN(), log.AppendedLSN(), sink.writes)
		}
		from := int64(0)
		if !retain {
			from = log.DurableLSN()
			if _, err := log.StreamRange(0, 1368); !errors.Is(err, ErrTailUnavailable) {
				t.Errorf("retain %v: durable bytes served without retention: %v", retain, err)
			}
		}
		for _, r := range [][2]int64{{from, 1368}, {800, 1100}, {900, 1000}, {1100, 1368}} {
			got, err := log.StreamRange(r[0], r[1])
			if err != nil {
				t.Errorf("retain %v: StreamRange%v: %v", retain, r, err)
			} else if !bytes.Equal(got, want[r[0]:r[1]]) {
				t.Errorf("retain %v: StreamRange%v: %d bytes differ from the appended records", retain, r, len(got))
			}
		}
		env.Close()
	}
}
