package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"xssd/internal/btree"
	"xssd/internal/db"
	"xssd/internal/obs"
	"xssd/internal/sim"
	"xssd/internal/wal"
)

// recordingSink is a zero-latency WAL sink that keeps a copy of every
// durable byte so tests can decode the stream a crashed host would find.
type recordingSink struct{ data []byte }

func (s *recordingSink) Write(p *sim.Proc, b []byte) error {
	s.data = append(s.data, b...)
	return nil
}

func (s *recordingSink) Name() string { return "ckpt-test" }

const testPageSize = 512

// harness is one paged engine over a memory page store with a recording
// WAL, ready for a simulated workload.
type harness struct {
	env   *sim.Env
	sink  *recordingSink
	log   *wal.Log
	store *btree.MemStore
	pg    *btree.Pager
	eng   *db.Engine
}

func newHarness(seed int64, pool int) *harness {
	env := sim.NewEnv(seed)
	sink := &recordingSink{}
	log := wal.NewLog(env, sink, wal.Config{GroupBytes: 4 << 10, GroupTimeout: 200 * time.Microsecond})
	store := btree.NewMemStore(testPageSize, 1<<20)
	pg := btree.NewPager(store, btree.Config{PoolPages: pool})
	eng := db.NewPaged(env, log, pg)
	eng.CreateTable("kv")
	return &harness{env: env, sink: sink, log: log, store: store, pg: pg, eng: eng}
}

// runCommitter commits n transactions over a 50-key space, one every
// 50us, waiting each durable. done flips when the last commit returns.
func (h *harness) runCommitter(t *testing.T, n int, done *bool) {
	t.Helper()
	h.env.Go("committer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			tx := h.eng.BeginP(p)
			key := fmt.Sprintf("k%04d", i%50)
			tx.PutOwnedIn(h.eng.Table("kv"), key, []byte(fmt.Sprintf("v-%06d", i)))
			if err := tx.Commit(p); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
			p.Sleep(50 * time.Microsecond)
		}
		*done = true
	})
}

// recoverStream runs Recover on a fresh env against the harness's page
// store and durable stream.
func (h *harness) recoverStream(t *testing.T) (*db.Engine, Stats) {
	t.Helper()
	records := wal.DecodeAll(h.sink.data)
	renv := sim.NewEnv(1)
	eng, st, err := Recover(nil, renv, h.store, 64, records, nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return eng, st
}

// oracleFingerprints replays the full durable stream two independent
// ways — a fresh paged engine and the classic in-memory engine — and
// returns their (identical, or the test fails) fingerprint.
func (h *harness) oracleFingerprints(t *testing.T) uint64 {
	t.Helper()
	records := wal.DecodeAll(h.sink.data)

	penv := sim.NewEnv(2)
	paged := db.NewPaged(penv, nil, btree.NewPager(btree.NewMemStore(testPageSize, 1<<20), btree.Config{PoolPages: 64}))
	if err := paged.Recover(records); err != nil {
		t.Fatalf("paged oracle replay: %v", err)
	}

	cenv := sim.NewEnv(3)
	classic := db.New(cenv, nil)
	if err := classic.Recover(records); err != nil {
		t.Fatalf("classic oracle replay: %v", err)
	}

	pf, cf := paged.FingerprintIn(nil), classic.Fingerprint()
	if pf != cf {
		t.Fatalf("paged full-replay fingerprint %#x != classic %#x", pf, cf)
	}
	return pf
}

// TestCheckpointBoundsRecovery runs the full loop — workload, background
// checkpoint manager, crash, recover — at three log lengths and checks
// that recovery replays only the tail: strictly fewer records than a
// full replay, and under half of them once the log is long enough for
// checkpoints to have settled (the recovery-time acceptance bound).
func TestCheckpointBoundsRecovery(t *testing.T) {
	lengths := []int{60, 180, 540}
	if testing.Short() {
		lengths = []int{60, 180}
	}
	for _, n := range lengths {
		t.Run(fmt.Sprintf("txns=%d", n), func(t *testing.T) {
			h := newHarness(int64(n), 64)
			m := NewManager(h.eng, h.log, Config{Interval: 300 * time.Microsecond})
			h.env.Go("ckpt", m.Run)
			var done bool
			h.runCommitter(t, n, &done)
			// Stop checkpointing at ~60% of the workload: the last stretch
			// of commits has no checkpoint behind it and becomes the replay
			// tail, like a crash that lands between checkpoint intervals.
			h.env.RunUntil(time.Duration(n) * 150 * time.Microsecond)
			m.Stop()
			h.env.RunUntil(time.Duration(n)*550*time.Microsecond + 10*time.Millisecond)
			if !done {
				t.Fatal("committer did not finish in the run window")
			}
			if m.Completed() == 0 {
				t.Fatal("no checkpoint completed")
			}

			rec, st := h.recoverStream(t)
			if !st.Found {
				t.Fatal("recovery did not find a checkpoint record")
			}
			if st.Tail == 0 || st.Tail >= st.Total {
				t.Fatalf("tail replay %d outside (0, %d)", st.Tail, st.Total)
			}
			if 2*st.Tail >= st.Total {
				t.Errorf("tail replay %d not under half of full replay %d", st.Tail, st.Total)
			}
			t.Logf("recovery: txns=%d checkpoints=%d total=%d tail=%d (%.1f%%)",
				n, m.Completed(), st.Total, st.Tail, 100*float64(st.Tail)/float64(st.Total))

			want := h.oracleFingerprints(t)
			if got := rec.FingerprintIn(nil); got != want {
				t.Fatalf("recovered fingerprint %#x != full-replay oracle %#x", got, want)
			}
			if live := h.eng.FingerprintIn(nil); live != want {
				t.Fatalf("live fingerprint %#x != full-replay oracle %#x", live, want)
			}
		})
	}
}

// TestCheckpointRacesCommitter drives the checkpoint protocol by hand
// while a committer keeps writing, and checks the fuzzy cut: every
// snapshot image carries a recovery LSN at or below the checkpoint's
// StartLSN (later commits belong to the replay tail, not the images),
// and recovery from the racing stream is still bit-identical to a full
// replay.
func TestCheckpointRacesCommitter(t *testing.T) {
	h := newHarness(11, 64)
	var done bool
	h.runCommitter(t, 200, &done)

	completed := 0
	h.env.Go("ckpt-manual", func(p *sim.Proc) {
		for completed < 4 {
			p.Sleep(700 * time.Microsecond)
			ck, err := h.eng.BeginCheckpoint(p)
			if err != nil {
				t.Errorf("begin checkpoint: %v", err)
				return
			}
			for _, img := range ck.Snap.Images {
				if img.LSN > ck.StartLSN {
					t.Errorf("image page %d recovery LSN %d past checkpoint StartLSN %d", img.ID, img.LSN, ck.StartLSN)
				}
			}
			if err := h.pg.WriteImages(p, ck.Snap.Images); err != nil {
				t.Errorf("write images: %v", err)
				return
			}
			if err := h.pg.Sync(p); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
			lsn := h.log.Append(wal.Record{Payload: FromCheckpoint(ck).Encode()})
			if !h.log.WaitDurableOrDead(p, lsn) {
				t.Error("log died under checkpoint record")
				return
			}
			h.pg.CommitCheckpoint(ck.Snap)
			completed++
		}
	})
	h.env.RunUntil(120 * time.Millisecond)
	if !done || completed < 4 {
		t.Fatalf("run window too short: committer done=%v checkpoints=%d", done, completed)
	}

	rec, st := h.recoverStream(t)
	if !st.Found || st.Tail >= st.Total {
		t.Fatalf("bad recovery stats: %+v", st)
	}
	want := h.oracleFingerprints(t)
	if got := rec.FingerprintIn(nil); got != want {
		t.Fatalf("recovered fingerprint %#x != oracle %#x", got, want)
	}
}

// TestCheckpointDuringDecisionWaitKeepsTheDecision runs a checkpoint in
// the window a 2PC coordinator leaves open: its DECISION record, which
// carries the coordinator's own writes, is appended but not yet applied,
// and the coordinator waits for it to become durable without the commit
// lock. The cut must not pass that record: recovery has to replay it, or
// the acknowledged write is in neither the images nor the tail.
func TestCheckpointDuringDecisionWaitKeepsTheDecision(t *testing.T) {
	h := newHarness(53, 64)
	m := NewManager(h.eng, h.log, Config{})
	const gid = 1 << 40
	var completed, committed bool
	h.env.Go("coordinator", func(p *sim.Proc) {
		seed := h.eng.BeginP(p)
		seed.PutOwnedIn(h.eng.Table("kv"), "k0000", []byte("seed"))
		if err := seed.Commit(p); err != nil {
			t.Errorf("seed commit: %v", err)
			return
		}
		tx := h.eng.BeginP(p)
		tx.PutOwnedIn(h.eng.Table("kv"), "k0001", []byte("decided"))
		if err := tx.Prepare(); err != nil {
			t.Errorf("prepare: %v", err)
			return
		}
		payload := db.EncodeControl(db.KindDecision, gid, 0, []int{1}, tx.EncodedWrites())
		lsn := h.log.Append(wal.Record{TxID: gid, Payload: payload})
		h.env.Go("ckpt", func(p *sim.Proc) {
			ok, err := m.RunOnce(p)
			if err != nil {
				t.Errorf("checkpoint: %v", err)
			}
			completed = ok
		})
		h.log.WaitDurable(p, lsn)
		tx.CommitPrepared(gid)
		committed = true
	})
	h.env.RunUntil(10 * time.Millisecond)
	if !completed || !committed {
		t.Fatalf("checkpoint completed %v, decision applied %v", completed, committed)
	}

	rec, st := h.recoverStream(t)
	if !st.Found {
		t.Fatal("recovery did not find the checkpoint")
	}
	want := h.oracleFingerprints(t)
	if live := h.eng.FingerprintIn(nil); live != want {
		t.Fatalf("live fingerprint %#x != full-replay oracle %#x", live, want)
	}
	if got := rec.FingerprintIn(nil); got != want {
		t.Fatalf("recovered from StartLSN %d: fingerprint %#x != live and full replay %#x", st.StartLSN, got, want)
	}
}

// TestCrashMidCheckpointFallsBack completes one checkpoint, commits
// more, then crashes the device midway through a second checkpoint —
// after its images hit their shadow slots but before its record becomes
// durable. Recovery must ignore the torn checkpoint's slot writes (the
// committed parity in checkpoint one's record points at the old slots)
// and come back bit-identical to a full replay.
func TestCrashMidCheckpointFallsBack(t *testing.T) {
	h := newHarness(23, 64)
	var firstStart int64

	h.env.Go("driver", func(p *sim.Proc) {
		commit := func(i int) {
			tx := h.eng.BeginP(p)
			tx.PutOwnedIn(h.eng.Table("kv"), fmt.Sprintf("k%04d", i%50), []byte(fmt.Sprintf("v-%06d", i)))
			if err := tx.Commit(p); err != nil {
				t.Errorf("commit %d: %v", i, err)
			}
		}
		for i := 0; i < 40; i++ {
			commit(i)
		}

		ck1, err := h.eng.BeginCheckpoint(p)
		if err != nil {
			t.Errorf("begin checkpoint 1: %v", err)
			return
		}
		firstStart = ck1.StartLSN
		if err := h.pg.WriteImages(p, ck1.Snap.Images); err != nil {
			t.Errorf("write images 1: %v", err)
			return
		}
		if err := h.pg.Sync(p); err != nil {
			t.Errorf("sync 1: %v", err)
			return
		}
		lsn := h.log.Append(wal.Record{Payload: FromCheckpoint(ck1).Encode()})
		if !h.log.WaitDurableOrDead(p, lsn) {
			t.Error("log died under checkpoint 1")
			return
		}
		h.pg.CommitCheckpoint(ck1.Snap)

		for i := 40; i < 80; i++ {
			commit(i)
		}

		// Checkpoint 2 gets its images durable, then the power fails
		// before its record is appended: the record never reaches the
		// stream, so recovery must fall back to checkpoint 1.
		ck2, err := h.eng.BeginCheckpoint(p)
		if err != nil {
			t.Errorf("begin checkpoint 2: %v", err)
			return
		}
		if err := h.pg.WriteImages(p, ck2.Snap.Images); err != nil {
			t.Errorf("write images 2: %v", err)
			return
		}
		if err := h.pg.Sync(p); err != nil {
			t.Errorf("sync 2: %v", err)
			return
		}
		h.log.Halt()
	})
	h.env.RunUntil(120 * time.Millisecond)

	rec, st := h.recoverStream(t)
	if !st.Found {
		t.Fatal("recovery did not find checkpoint 1")
	}
	if st.StartLSN != firstStart {
		t.Fatalf("recovered from StartLSN %d, want checkpoint 1's %d", st.StartLSN, firstStart)
	}
	if st.Tail >= st.Total {
		t.Fatalf("tail replay %d not below full replay %d", st.Tail, st.Total)
	}
	want := h.oracleFingerprints(t)
	if got := rec.FingerprintIn(nil); got != want {
		t.Fatalf("recovered fingerprint %#x != oracle %#x", got, want)
	}
}

// TestRecoveryWithoutCheckpoint covers the fallback path: no checkpoint
// on the stream means a fresh memory-backed engine and a full replay.
func TestRecoveryWithoutCheckpoint(t *testing.T) {
	h := newHarness(31, 64)
	var done bool
	h.runCommitter(t, 50, &done)
	h.env.RunUntil(20 * time.Millisecond)
	if !done {
		t.Fatal("committer did not finish")
	}

	rec, st := h.recoverStream(t)
	if st.Found {
		t.Fatal("found a checkpoint on a checkpoint-free stream")
	}
	if st.Tail != st.Total || st.Total == 0 {
		t.Fatalf("fallback must replay everything: %+v", st)
	}
	want := h.oracleFingerprints(t)
	if got := rec.FingerprintIn(nil); got != want {
		t.Fatalf("recovered fingerprint %#x != oracle %#x", got, want)
	}
}

// TestRecoverWithoutAStoreReplaysTheWholeStream recovers a stream that
// holds checkpoint records with a nil store: ckpt.Recover builds a row-map
// engine, looks for no checkpoint, replays every record, and ends where
// the classic engine's recovery of the same records does.
func TestRecoverWithoutAStoreReplaysTheWholeStream(t *testing.T) {
	h := newHarness(61, 64)
	m := NewManager(h.eng, h.log, Config{Interval: 300 * time.Microsecond})
	h.env.Go("ckpt", m.Run)
	var done bool
	h.runCommitter(t, 100, &done)
	h.env.RunUntil(30 * time.Millisecond)
	m.Stop()
	h.env.RunUntil(h.env.Now() + 5*time.Millisecond)
	if !done || m.Completed() == 0 {
		t.Fatalf("committer done %v, %d checkpoints completed; want both", done, m.Completed())
	}

	records := wal.DecodeAll(h.sink.data)
	rec, st, err := Recover(nil, sim.NewEnv(1), nil, 0, records, nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if st.Found || st.StartLSN != 0 || st.Tail != st.Total || st.Total == 0 {
		t.Fatalf("a nil store must replay the whole stream: %+v", st)
	}
	if rec.Paged() {
		t.Fatal("a nil store recovered a paged engine")
	}
	classic := db.New(sim.NewEnv(2), nil)
	if err := classic.Recover(records); err != nil {
		t.Fatalf("classic recovery: %v", err)
	}
	if got, want := rec.Fingerprint(), classic.Fingerprint(); got != want {
		t.Fatalf("nil-store recovery %#x != db.Engine.Recover %#x", got, want)
	}
}

// latencySink is recordingSink behind a fixed device latency per write.
type latencySink struct {
	recordingSink
	lat time.Duration
}

func (s *latencySink) Write(p *sim.Proc, b []byte) error {
	p.Sleep(s.lat)
	return s.recordingSink.Write(p, b)
}

// TestCheckpointDurationReadsBack drives one checkpoint whose duration is
// fixed by construction and reads it back from duration_ns. A MemStore
// pager writes and syncs in zero virtual time, and the record, appended
// alone to an idle log, becomes durable one group timeout plus one sink
// write after the attempt starts.
func TestCheckpointDurationReadsBack(t *testing.T) {
	const timeout, lat = 300 * time.Microsecond, 70 * time.Microsecond
	env := sim.NewEnv(1)
	log := wal.NewLog(env, &latencySink{lat: lat}, wal.Config{GroupBytes: 4 << 10, GroupTimeout: timeout})
	eng := db.NewPaged(env, log, btree.NewPager(btree.NewMemStore(testPageSize, 1<<20), btree.Config{PoolPages: 8}))
	eng.CreateTable("kv")
	reg := obs.For(env)
	m := NewManager(eng, log, Config{Scope: reg.Scope("ckpt")})
	var ok bool
	var err error
	env.Go("ckpt", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		ok, err = m.RunOnce(p)
	})
	env.RunUntil(5 * time.Millisecond)
	if !ok || err != nil {
		t.Fatalf("checkpoint completed %v: %v", ok, err)
	}
	h := reg.Histogram("ckpt/duration_ns")
	if n, sum := h.N(), h.Sum(); n != 1 || sum != int64(timeout+lat) {
		t.Fatalf("duration_ns holds %d observations summing to %v, want 1 of %v", n, time.Duration(sum), timeout+lat)
	}
}

// TestManagerRunLoop exercises the background process end to end:
// checkpoints complete on the interval, Stop lands, and WaitIdle
// returns with nothing in flight.
func TestManagerRunLoop(t *testing.T) {
	h := newHarness(41, 64)
	m := NewManager(h.eng, h.log, Config{Interval: 500 * time.Microsecond})
	h.env.Go("ckpt", m.Run)
	var done bool
	h.runCommitter(t, 100, &done)
	h.env.RunUntil(20 * time.Millisecond)
	m.Stop()
	h.env.Go("waiter", func(p *sim.Proc) { m.WaitIdle(p) })
	h.env.RunUntil(h.env.Now() + 5*time.Millisecond)
	if !done {
		t.Fatal("committer did not finish")
	}
	if m.Completed() < 2 {
		t.Fatalf("expected several checkpoints, got %d (aborted %d)", m.Completed(), m.mAborted.Value())
	}
}

// TestMalformedTwoPCRecordFailsRecovery feeds recovery a well-framed WAL
// record whose payload is a 2PC control record of an unknown kind. It was
// durable, so it is corruption: classic and checkpoint recovery both
// return an error instead of skipping it.
func TestMalformedTwoPCRecordFailsRecovery(t *testing.T) {
	bad := wal.Record{TxID: 1, Payload: db.EncodeControl(77, 1, 0, nil, nil)}
	records := wal.DecodeAll(bad.Encode(nil))
	if len(records) != 1 || db.ControlOps(records[0].Payload) != db.TwoPCOps {
		t.Fatalf("stream decodes to %d records, want one 2PC record", len(records))
	}
	if err := db.New(sim.NewEnv(1), nil).Recover(records); err == nil {
		t.Error("db.Engine.Recover accepted an unknown 2PC kind")
	}
	if _, _, err := Recover(nil, sim.NewEnv(1), btree.NewMemStore(testPageSize, 1<<20), 8, records, nil); err == nil {
		t.Error("ckpt.Recover accepted an unknown 2PC kind")
	}
}

func sampleRecord() Record {
	return Record{
		StartLSN: 4096,
		NextID:   9,
		Free:     []uint64{3, 7},
		Parity:   []uint8{0, 1, 0, 0, 1, 1, 0, 0, 1},
		Tables:   map[string]uint64{"customer": 4, "stock": 0},
	}
}

func recordsEqual(a, b Record) bool {
	if a.StartLSN != b.StartLSN || a.NextID != b.NextID ||
		len(a.Free) != len(b.Free) || len(a.Parity) != len(b.Parity) || len(a.Tables) != len(b.Tables) {
		return false
	}
	for i := range a.Free {
		if a.Free[i] != b.Free[i] {
			return false
		}
	}
	for i := range a.Parity {
		if a.Parity[i] != b.Parity[i] {
			return false
		}
	}
	for n, r := range a.Tables {
		if b.Tables[n] != r {
			return false
		}
	}
	return true
}

func TestCheckpointRecordRoundTrip(t *testing.T) {
	r := sampleRecord()
	enc := r.Encode()
	if binary.LittleEndian.Uint16(enc) != db.CheckpointOps || !IsCheckpointPayload(enc) || !db.IsControlPayload(enc) {
		t.Fatal("encoded record not recognized as checkpoint payload")
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !recordsEqual(r, got) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, r)
	}
	if !bytes.Equal(enc, r.Encode()) {
		t.Fatal("encode is not deterministic")
	}
}

func TestCheckpointRecordRejectsCorruption(t *testing.T) {
	enc := sampleRecord().Encode()
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("decode accepted a flipped byte at offset %d", i)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("decode accepted truncation to %d bytes", cut)
		}
	}
}

// FuzzCheckpointRecord fuzzes the checkpoint record codec from both
// directions: arbitrary bytes must never panic and, when accepted, must
// re-encode canonically; records built from fuzz input must round-trip
// exactly.
func FuzzCheckpointRecord(f *testing.F) {
	f.Add(sampleRecord().Encode(), int64(0), uint64(0))
	f.Add([]byte{0xFE, 0xFF, 1}, int64(1), uint64(6))
	f.Add([]byte(nil), int64(-40), uint64(300))
	f.Fuzz(func(t *testing.T, data []byte, startLSN int64, nextID uint64) {
		// Arm 1: arbitrary bytes through Decode. Accepted payloads must
		// re-encode to the exact same bytes (the codec is canonical).
		if r, err := Decode(data); err == nil {
			if enc := r.Encode(); !bytes.Equal(enc, data) {
				t.Fatalf("accepted payload is not canonical:\n in %x\nout %x", data, enc)
			}
		}

		// Arm 2: a structurally valid record derived from the fuzz input
		// must round-trip exactly.
		nextID %= 4096
		r := Record{StartLSN: startLSN, NextID: nextID, Parity: make([]uint8, nextID), Tables: map[string]uint64{}}
		for i, b := range data {
			if uint64(i) >= nextID {
				break
			}
			r.Parity[i] = b & 1
			if b&2 != 0 {
				r.Free = append(r.Free, uint64(i))
			}
			if b&4 != 0 && nextID > 0 {
				r.Tables[fmt.Sprintf("t%04d", i)] = uint64(i) % nextID
			}
		}
		enc := r.Encode()
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode of built record failed: %v\npayload %x", err, enc)
		}
		if !recordsEqual(r, got) {
			t.Fatalf("built record round trip mismatch: %+v != %+v", got, r)
		}
	})
}

// TestManagerStopsOnFullStore: a paged engine whose tree grows past its
// store's slots gets btree.ErrStoreFull from the next checkpoint, and Run
// stops there and reports it through Err instead of retrying every
// interval.
func TestManagerStopsOnFullStore(t *testing.T) {
	h := newHarness(43, 64)
	h.store = btree.NewMemStore(testPageSize, 8) // four page ids
	h.pg = btree.NewPager(h.store, btree.Config{PoolPages: 64})
	h.eng = db.NewPaged(h.env, h.log, h.pg)
	h.eng.CreateTable("kv")
	m := NewManager(h.eng, h.log, Config{Interval: 500 * time.Microsecond, Scope: obs.For(h.env).Scope("ckpt")})
	stopped := false
	h.env.Go("ckpt", func(p *sim.Proc) { m.Run(p); stopped = true })
	h.env.Go("grower", func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			tx := h.eng.BeginP(p)
			tx.PutOwnedIn(h.eng.Table("kv"), fmt.Sprintf("k%06d", i), bytes.Repeat([]byte{'v'}, 64))
			if err := tx.Commit(p); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
			p.Sleep(20 * time.Microsecond)
		}
	})
	h.env.RunUntil(30 * time.Millisecond)
	if !stopped {
		t.Fatalf("Run still retrying after %d aborted checkpoints (err %v)", m.mAborted.Value(), m.Err())
	}
	if err := m.Err(); !errors.Is(err, btree.ErrStoreFull) {
		t.Fatalf("Err() = %v, want btree.ErrStoreFull", err)
	}
	if n := m.mAborted.Value(); n != 1 {
		t.Errorf("%d aborted checkpoints, want exactly the one that found the store full", n)
	}
}
