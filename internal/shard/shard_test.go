package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"xssd/internal/btree"
	"xssd/internal/ckpt"
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

// testConfig builds a cluster config over shards*2 warehouses with
// retaining logs and the bank loader.
func testConfig(shards, simWorkers int, seed int64) Config {
	warehouses := shards * 2
	return Config{
		Shards:     shards,
		Warehouses: warehouses,
		SimWorkers: simWorkers,
		Seed:       seed,
		WAL:        wal.Config{Retain: true},
		Load:       bankLoad(shards, warehouses),
	}
}

// durableStreams returns every shard's acknowledged-durable stream, from
// its log's retained copy: a group-commit batch is all-or-nothing, and the
// log retains only batches whose sink write returned nil.
func durableStreams(t *testing.T, cl *Cluster) [][]byte {
	t.Helper()
	streams := make([][]byte, len(cl.shards))
	for i, s := range cl.shards {
		b, err := s.Log().StreamRange(0, s.Log().DurableLSN())
		if err != nil {
			t.Fatalf("shard %d stream: %v", i, err)
		}
		streams[i] = b
	}
	return streams
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

// parseAll parses every shard's durable stream into views.
func parseAll(t *testing.T, cl *Cluster) []*View {
	t.Helper()
	streams := durableStreams(t, cl)
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
func checkCluster(t *testing.T, cl *Cluster, deadShard int) {
	t.Helper()
	views := parseAll(t, cl)
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
	cl.Group().RunUntil(cl.Group().Now() + 50*time.Millisecond)
	if bootErr != nil {
		t.Fatalf("Boot: %v", bootErr)
	}
}

func TestLocalCommitStaysLocal(t *testing.T) {
	cl, err := New(testConfig(1, 0, 42))
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
	views := parseAll(t, cl)
	if n := len(views[0].Prepares) + len(views[0].Decisions) + len(views[0].CommitPs); n != 0 {
		t.Fatalf("local commit wrote %d control records, want 0", n)
	}
	checkCluster(t, cl, -1)
}

func TestCrossShardCommit(t *testing.T) {
	cl, err := New(testConfig(2, 0, 42))
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
	views := parseAll(t, cl)
	if _, ok := views[0].Decisions[gids[0]]; !ok {
		t.Fatal("coordinator stream has no durable DECISION")
	}
	if _, ok := views[1].Prepares[gids[0]]; !ok {
		t.Fatal("participant stream has no durable PREPARE")
	}
	if !views[1].CommitPs[gids[0]] {
		t.Fatal("participant stream has no COMMITP")
	}
	checkCluster(t, cl, -1)
}

// TestShardStreamNeedsShardReplay pins what single-engine replay does with
// a shard's stream: db.Recover applies the coordinator's half of a
// cross-shard transfer, which rides the DECISION record, so with nothing
// in doubt it rebuilds the live engine exactly as shard.Replay does.
func TestShardStreamNeedsShardReplay(t *testing.T) {
	cl, err := New(testConfig(2, 0, 42))
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
	if err := plain.Recover(wal.DecodeAll(durableStreams(t, cl)[0])); err != nil {
		t.Fatalf("db.Recover: %v", err)
	}
	if got := plain.Fingerprint(); got != live {
		t.Fatalf("db.Recover of shard 0's stream %#x != live %#x: the DECISION record's write is missing", got, live)
	}

	engines, err := Replay(sim.NewEnv(1), parseAll(t, cl), load)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if got := engines[0].Fingerprint(); got != live {
		t.Fatalf("shard.Replay fingerprint %#x != live %#x", got, live)
	}
}

func TestCrossShardConflictAborts(t *testing.T) {
	cl, err := New(testConfig(2, 0, 7))
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
	checkCluster(t, cl, -1)
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
		cl, err := New(testConfig(4, workers, 99))
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
		for i, stream := range durableStreams(t, cl) {
			f.fps = append(f.fps, cl.Shard(i).Engine().Fingerprint())
			f.streams = append(f.streams, string(stream))
			f.acked = fmt.Sprintf("%s|%v", f.acked, cl.Shard(i).AckedGIDs())
		}
		checkCluster(t, cl, -1)
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
	for _, kind := range []byte{db.KindPrepare, db.KindDecision, db.KindCommitP} {
		payload := db.EncodeControl(kind, 0x123456789a, 3, []int{1, 4}, writes)
		if binary.LittleEndian.Uint16(payload) != db.TwoPCOps || db.ControlOps(payload) != db.TwoPCOps {
			t.Fatalf("kind %d: not recognized as a 2PC control record", kind)
		}
		cs, err := db.Controls([]wal.Record{{Payload: payload}})
		if err != nil || len(cs) != 1 {
			t.Fatalf("kind %d: %d records, %v", kind, len(cs), err)
		}
		if c := cs[0]; c.Kind != kind || c.GID != 0x123456789a || c.Coord != 3 ||
			len(c.Shards) != 2 || c.Shards[0] != 1 || c.Shards[1] != 4 || string(c.Writes) != string(writes) {
			t.Fatalf("kind %d: round trip mismatch: %+v", kind, c)
		}
	}
	if cs, err := db.Controls([]wal.Record{{Payload: []byte{0, 1, 2}}}); err != nil || len(cs) != 0 {
		t.Fatalf("redo payload misread as control record: %v, %v", cs, err)
	}
	if _, err := db.Controls([]wal.Record{{Payload: db.EncodeControl(77, 1, 0, nil, nil)}}); err == nil {
		t.Fatal("unknown control kind decoded without error")
	}
}

// TestCheckpointBetweenPrepareAndCommitP recovers each shard of a 2-shard
// cluster through ckpt.Recover from a checkpoint spliced right after the
// shard's PREPARE, so its COMMITP is in the replayed tail and its PREPARE
// is not. Transfers run both ways, so each shard coordinates one gid
// (DECISION) and takes part in the other (PREPARE, COMMITP). Recovery
// must come back equal to the live engine: the tail's COMMITP applies the
// write set of the PREPARE before the cut, and a DECISION lands in the
// checkpoint's images or in the tail, wherever the cut puts it.
func TestCheckpointBetweenPrepareAndCommitP(t *testing.T) {
	cl, err := New(testConfig(2, 0, 42))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Build()
	var errOut, errBack error
	boot(t, cl, func(p *sim.Proc) {
		if errOut = transfer(p, cl, 1, 3, 200); errOut == nil {
			cl.Shard(1).Env().Go("transfer-back", func(p *sim.Proc) { errBack = transfer(p, cl, 3, 1, 50) })
		}
	})
	if errOut != nil || errBack != nil {
		t.Fatalf("transfers: %v, %v", errOut, errBack)
	}
	load := bankLoad(2, 4)
	for i, v := range parseAll(t, cl) {
		prep := -1
		for k := range v.Records {
			if cs, _ := db.Controls(v.Records[k : k+1]); len(cs) == 1 && cs[0].Kind == db.KindPrepare {
				prep = k
			}
		}
		if prep < 0 || prep == len(v.Records)-1 {
			t.Fatalf("shard %d: PREPARE at %d of %d records; want one with a record after it", i, prep, len(v.Records))
		}

		store := btree.NewMemStore(512, 1<<20)
		eng := db.NewPaged(sim.NewEnv(1), nil, btree.NewPager(store, btree.Config{PoolPages: 16}))
		load(eng, i)
		if _, err := eng.Replay(nil, v.Records[:prep+1], 0, nil); err != nil {
			t.Fatalf("shard %d: replay to the PREPARE: %v", i, err)
		}
		ck, err := eng.BeginCheckpoint(nil)
		if err != nil {
			t.Fatalf("shard %d: checkpoint: %v", i, err)
		}
		if err := eng.Pager().WriteImages(nil, ck.Snap.Images); err != nil {
			t.Fatalf("shard %d: write images: %v", i, err)
		}
		eng.Pager().CommitCheckpoint(ck.Snap)
		spliced := append(slices.Clone(v.Records[:prep+1]), wal.Record{LSN: ck.StartLSN, Payload: ckpt.FromCheckpoint(ck).Encode()})
		spliced = append(spliced, v.Records[prep+1:]...)

		rec, st, err := ckpt.Recover(nil, sim.NewEnv(2), store, 16, spliced, func(e *db.Engine) { load(e, i) })
		if err != nil {
			t.Fatalf("shard %d: ckpt.Recover: %v", i, err)
		}
		if !st.Found || st.StartLSN != v.Records[prep+1].LSN {
			t.Fatalf("shard %d: recovered from %+v, want the checkpoint at LSN %d", i, st, v.Records[prep+1].LSN)
		}
		if got, want := rec.FingerprintIn(nil), cl.Shard(i).Engine().Fingerprint(); got != want {
			t.Errorf("shard %d: ckpt.Recover fingerprint %#x != live %#x", i, got, want)
		}
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
