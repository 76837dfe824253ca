package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"xssd/internal/db"
	"xssd/internal/sim"
	"xssd/internal/wal"
)

// The package tests drive the cluster with a miniature bank schema (one
// "kv" table, one balance row per warehouse) instead of TPC-C — the
// tpcc package imports shard, so these in-package tests cannot import it
// back. Transfer transactions move amounts between warehouses, which
// exercises exactly the 2PC surface: remote reads, remote writes, and
// cross-shard commits whose invariant (the sum of all balances) is easy
// to audit.

const testBalance = 1000

func balKey(w int) string { return fmt.Sprintf("w%d/balance", w) }

func encBal(v int64) []byte { return []byte(fmt.Sprintf("%d", v)) }
func decBal(b []byte) int64 { var v int64; fmt.Sscanf(string(b), "%d", &v); return v }

// okSink records bytes only after the inner sink acknowledged them, so
// the recorded stream is exactly the acknowledged-durable stream: a
// group-commit batch is all-or-nothing, and the log only reports
// durability for batches whose Write returned nil.
type okSink struct {
	inner wal.Sink
	buf   *[]byte
}

func (s *okSink) Write(p *sim.Proc, data []byte) error {
	if err := s.inner.Write(p, data); err != nil {
		return err
	}
	*s.buf = append(*s.buf, data...)
	return nil
}

func (s *okSink) Name() string { return s.inner.Name() }

// testConfig builds a cluster config over shards*2 warehouses with
// recorded sinks and the bank loader.
func testConfig(shards, simWorkers int, seed int64, streams [][]byte) Config {
	warehouses := shards * 2
	return Config{
		Shards:     shards,
		Warehouses: warehouses,
		SimWorkers: simWorkers,
		Seed:       seed,
		WrapSink: func(id int, inner wal.Sink) wal.Sink {
			return &okSink{inner: inner, buf: &streams[id]}
		},
		Load: bankLoad(shards, warehouses),
	}
}

func bankLoad(shards, warehouses int) func(*db.Engine, int) {
	return func(eng *db.Engine, id int) {
		eng.CreateTable("kv")
		for w := 1; w <= warehouses; w++ {
			if OwnerOf(w, shards, warehouses) == id {
				eng.LoadRow("kv", balKey(w), encBal(testBalance))
			}
		}
	}
}

// transfer moves amount from warehouse src to warehouse dst in one
// transaction homed on src's shard.
func transfer(p *sim.Proc, cl *Cluster, src, dst int, amount int64) error {
	home := cl.Shard(cl.ShardOf(src))
	kv := home.Engine().Table("kv")
	tx := home.BeginIn(new(Tx), p)
	sRow, ok, err := tx.GetW(p, src, kv, balKey(src))
	if err != nil || !ok {
		tx.Abort()
		if err == nil {
			err = errors.New("missing src balance")
		}
		return err
	}
	dRow, ok, err := tx.GetW(p, dst, kv, balKey(dst))
	if err != nil || !ok {
		tx.Abort()
		if err == nil {
			err = errors.New("missing dst balance")
		}
		return err
	}
	tx.PutW(src, kv, balKey(src), encBal(decBal(sRow)-amount))
	tx.PutW(dst, kv, balKey(dst), encBal(decBal(dRow)+amount))
	return tx.Commit(p)
}

// balance reads warehouse w's balance straight from its owning engine
// (call only when the simulation is quiesced).
func balance(cl *Cluster, w int) int64 {
	eng := cl.Shard(cl.ShardOf(w)).Engine()
	tx := eng.Begin()
	defer tx.Abort()
	row, ok := tx.GetIn(eng.Table("kv"), balKey(w))
	if !ok {
		return -1
	}
	return decBal(row)
}

// parseAll parses every recorded stream into views.
func parseAll(t *testing.T, streams [][]byte) []*View {
	t.Helper()
	views := make([]*View, len(streams))
	for i, s := range streams {
		v, err := ParseStream(i, s)
		if err != nil {
			t.Fatalf("ParseStream(%d): %v", i, err)
		}
		views[i] = v
	}
	return views
}

// checkCluster runs the post-mortem oracle: I8 atomicity over the
// durable streams, and replay-equality against the live engines of every
// shard whose device survived.
func checkCluster(t *testing.T, cl *Cluster, streams [][]byte, deadShard int) {
	t.Helper()
	views := parseAll(t, streams)
	acked := make([][]int64, len(views))
	for i := range views {
		acked[i] = cl.Shard(i).AckedGIDs()
	}
	if bad := CheckAtomicity(views, acked); len(bad) != 0 {
		t.Fatalf("atomicity violations: %v", bad)
	}
	cfg := cl.cfg
	engines, err := Replay(sim.NewEnv(1), views, bankLoad(cfg.Shards, cfg.Warehouses))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	for i, eng := range engines {
		if i == deadShard {
			continue // live engine may be ahead of its dead device's stream
		}
		if got, want := eng.Fingerprint(), cl.Shard(i).Engine().Fingerprint(); got != want {
			t.Errorf("shard %d: replayed fingerprint %#x != live %#x", i, got, want)
		}
	}
	// The bank invariant: committed transfers conserve the total.
	var total int64
	for _, eng := range engines {
		if eng == nil {
			continue
		}
		tx := eng.Begin()
		for w := 1; w <= cfg.Warehouses; w++ {
			if row, ok := tx.GetIn(eng.Table("kv"), balKey(w)); ok {
				total += decBal(row)
			}
		}
		tx.Abort()
	}
	if want := int64(cfg.Warehouses) * testBalance; total != want {
		t.Errorf("replayed balances sum to %d, want %d", total, want)
	}
}

// boot brings a cluster up and returns once the boot process has run.
func boot(t testing.TB, cl *Cluster, body func(p *sim.Proc)) {
	t.Helper()
	var bootErr error
	cl.Shard(0).Env().Go("test-boot", func(p *sim.Proc) {
		if bootErr = cl.Boot(p); bootErr != nil {
			return
		}
		cl.Release()
		if body != nil {
			body(p)
		}
	})
	cl.RunUntil(cl.Now() + 50*time.Millisecond)
	if bootErr != nil {
		t.Fatalf("Boot: %v", bootErr)
	}
}

func TestLocalCommitStaysLocal(t *testing.T) {
	streams := make([][]byte, 1)
	cl, err := New(testConfig(1, 0, 42, streams))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Build()
	var txErr error
	boot(t, cl, func(p *sim.Proc) {
		txErr = transfer(p, cl, 1, 2, 75) // both warehouses on shard 0
	})
	if txErr != nil {
		t.Fatalf("transfer: %v", txErr)
	}
	if got := balance(cl, 1); got != testBalance-75 {
		t.Fatalf("w1 balance %d, want %d", got, testBalance-75)
	}
	if gids := cl.Shard(0).AckedGIDs(); len(gids) != 0 {
		t.Fatalf("local tx allocated cross-shard gids: %v", gids)
	}
	views := parseAll(t, streams)
	if n := len(views[0].Prepares) + len(views[0].Decisions) + len(views[0].CommitPs); n != 0 {
		t.Fatalf("local commit wrote %d control records, want 0", n)
	}
	checkCluster(t, cl, streams, -1)
}

func TestCrossShardCommit(t *testing.T) {
	streams := make([][]byte, 2)
	cl, err := New(testConfig(2, 0, 42, streams))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Build()
	var txErr error
	boot(t, cl, func(p *sim.Proc) {
		txErr = transfer(p, cl, 1, 3, 200) // shard 0 -> shard 1
	})
	if txErr != nil {
		t.Fatalf("transfer: %v", txErr)
	}
	if got := balance(cl, 1); got != testBalance-200 {
		t.Fatalf("w1 balance %d, want %d", got, testBalance-200)
	}
	if got := balance(cl, 3); got != testBalance+200 {
		t.Fatalf("w3 balance %d, want %d", got, testBalance+200)
	}
	gids := cl.Shard(0).AckedGIDs()
	if len(gids) != 1 {
		t.Fatalf("acked gids %v, want exactly one", gids)
	}
	views := parseAll(t, streams)
	if _, ok := views[0].Decisions[gids[0]]; !ok {
		t.Fatal("coordinator stream has no durable DECISION")
	}
	if _, ok := views[1].Prepares[gids[0]]; !ok {
		t.Fatal("participant stream has no durable PREPARE")
	}
	if !views[1].CommitPs[gids[0]] {
		t.Fatal("participant stream has no COMMITP")
	}
	checkCluster(t, cl, streams, -1)
}

// TestShardStreamNeedsShardReplay pins what single-engine replay does with
// a shard's stream: db.Recover skips 2PC control records, so after one
// cross-shard transfer it loses the coordinator's half, which rides the
// DECISION record. Only shard.Replay rebuilds the live engine.
func TestShardStreamNeedsShardReplay(t *testing.T) {
	streams := make([][]byte, 2)
	cl, err := New(testConfig(2, 0, 42, streams))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Build()
	var txErr error
	boot(t, cl, func(p *sim.Proc) {
		txErr = transfer(p, cl, 1, 3, 200) // shard 0 -> shard 1
	})
	if txErr != nil {
		t.Fatalf("transfer: %v", txErr)
	}
	load := bankLoad(2, 4)
	live := cl.Shard(0).Engine().Fingerprint()

	plain := db.New(sim.NewEnv(1), nil)
	load(plain, 0)
	if err := plain.Recover(wal.DecodeAll(streams[0])); err != nil {
		t.Fatalf("db.Recover: %v", err)
	}
	if plain.Fingerprint() == live {
		t.Fatal("db.Recover of shard 0's stream equals the live engine; want it to miss the write the DECISION record carries")
	}

	engines, err := Replay(sim.NewEnv(1), parseAll(t, streams), load)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if got := engines[0].Fingerprint(); got != live {
		t.Fatalf("shard.Replay fingerprint %#x != live %#x", got, live)
	}
}

func TestCrossShardConflictAborts(t *testing.T) {
	streams := make([][]byte, 2)
	cl, err := New(testConfig(2, 0, 7, streams))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Build()
	// Two coordinators race for the same rows in opposite directions.
	// Simultaneous prepares may mutually abort (presumed abort has no
	// wound-wait), so each racer retries with a backoff like a real
	// terminal; at least one must get through.
	var err0, err1 error
	retrying := func(src, dst int, amount int64, backoff time.Duration, out *error) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			for attempt := 0; attempt < 6; attempt++ {
				*out = transfer(p, cl, src, dst, amount)
				if !errors.Is(*out, db.ErrConflict) {
					return
				}
				// Distinct per-racer strides: identical deterministic
				// backoffs would re-collide forever.
				p.Sleep(time.Duration(attempt+1) * backoff)
			}
		}
	}
	boot(t, cl, func(p *sim.Proc) {
		cl.Shard(0).Env().Go("racer-0", retrying(1, 3, 10, 300*time.Microsecond, &err0))
		cl.Shard(1).Env().Go("racer-1", retrying(3, 1, 20, 1700*time.Microsecond, &err1))
	})
	committed := 0
	for _, e := range []error{err0, err1} {
		switch {
		case e == nil:
			committed++
		case errors.Is(e, db.ErrConflict):
		default:
			t.Fatalf("unexpected transfer error: %v", e)
		}
	}
	if committed == 0 {
		t.Fatal("both racers aborted on every attempt; expected at least one commit")
	}
	checkCluster(t, cl, streams, -1)
}

// TestWorkerCountParity is the acceptance check that a cluster's outcome
// is a pure function of (Seed, shape): the same seeded workload on the
// group engine with 1, 2, and 8 workers must fold to identical engine
// fingerprints, WAL streams, and ack lists.
func TestWorkerCountParity(t *testing.T) {
	type fold struct {
		fps     []uint64
		streams []string
		acked   string
	}
	run := func(workers int) fold {
		streams := make([][]byte, 4)
		cl, err := New(testConfig(4, workers, 99, streams))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cl.Build()
		boot(t, cl, func(p *sim.Proc) {
			for i, s := range cl.Shards() {
				i, s := i, s
				s.Env().Go(fmt.Sprintf("load-%d", i), func(p *sim.Proc) {
					rng := s.Env().Rand()
					for n := 0; n < 25; n++ {
						src := i*2 + 1 + rng.Intn(2)
						dst := rng.Intn(8) + 1
						if dst == src {
							dst = src%8 + 1
						}
						if err := transfer(p, cl, src, dst, int64(rng.Intn(50)+1)); err != nil &&
							!errors.Is(err, db.ErrConflict) && !errors.Is(err, ErrUnavailable) {
							t.Errorf("shard %d tx %d: %v", i, n, err)
						}
						p.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
				})
			}
		})
		var f fold
		for i := range cl.Shards() {
			f.fps = append(f.fps, cl.Shard(i).Engine().Fingerprint())
			f.streams = append(f.streams, string(streams[i]))
			f.acked = fmt.Sprintf("%s|%v", f.acked, cl.Shard(i).AckedGIDs())
		}
		checkCluster(t, cl, streams, -1)
		return f
	}
	base := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		for i := range base.fps {
			if got.fps[i] != base.fps[i] {
				t.Errorf("workers=%d: shard %d fingerprint %#x != workers=1 %#x", w, i, got.fps[i], base.fps[i])
			}
			if got.streams[i] != base.streams[i] {
				t.Errorf("workers=%d: shard %d WAL stream diverges from workers=1", w, i)
			}
		}
		if got.acked != base.acked {
			t.Errorf("workers=%d: ack lists diverge: %q != %q", w, got.acked, base.acked)
		}
	}
}

func TestControlRecordRoundTrip(t *testing.T) {
	writes := []byte{9, 8, 7, 6}
	for _, kind := range []byte{kindPrepare, kindDecision, kindCommitP} {
		payload := encodeControl(kind, 0x123456789a, 3, []int{1, 4}, writes)
		if binary.LittleEndian.Uint16(payload) != db.TwoPCOps || !IsControl(payload) || !db.IsControlPayload(payload) {
			t.Fatalf("kind %d: not recognized as a 2PC control record", kind)
		}
		c, err := DecodeControl(payload)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if c.Kind != kind || c.GID != 0x123456789a || c.Coord != 3 ||
			len(c.Shards) != 2 || c.Shards[0] != 1 || c.Shards[1] != 4 || string(c.Writes) != string(writes) {
			t.Fatalf("kind %d: round trip mismatch: %+v", kind, c)
		}
	}
	if IsControl([]byte{0, 1, 2}) {
		t.Fatal("redo payload misread as control record")
	}
	if _, err := DecodeControl(encodeControl(77, 1, 0, nil, nil)); err == nil {
		t.Fatal("unknown control kind decoded without error")
	}
}

func TestOwnerOf(t *testing.T) {
	cases := []struct{ w, shards, warehouses, want int }{
		{1, 4, 8, 0}, {2, 4, 8, 0}, {3, 4, 8, 1}, {8, 4, 8, 3},
		{1, 1, 2, 0}, {2, 1, 2, 0}, {16, 4, 16, 3},
	}
	for _, c := range cases {
		if got := OwnerOf(c.w, c.shards, c.warehouses); got != c.want {
			t.Errorf("OwnerOf(%d,%d,%d) = %d, want %d", c.w, c.shards, c.warehouses, got, c.want)
		}
	}
}
