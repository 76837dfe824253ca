package db

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"xssd/internal/btree"
	"xssd/internal/sim"
	"xssd/internal/wal"
)

// instantSink acks immediately (pure engine tests).
type instantSink struct{ data []byte }

func (s *instantSink) Write(p *sim.Proc, d []byte) error {
	s.data = append(s.data, d...)
	return nil
}

func (s *instantSink) Name() string { return "instant" }

// mkEngine builds an engine over one of the two row stores.
type mkEngine func(env *sim.Env, log *wal.Log) *Engine

// stores are the two row stores every engine test runs over: the row map,
// and B+trees on a memory-backed pager with pages small enough that a few
// dozen rows split.
var stores = []struct {
	name string
	mk   mkEngine
}{
	{"rowmap", New},
	{"tree", func(env *sim.Env, log *wal.Log) *Engine {
		return NewPaged(env, log, btree.NewPager(btree.NewMemStore(512, 1<<20), btree.Config{PoolPages: 8}))
	}},
}

// eachStore runs fn as one subtest per row store.
func eachStore(t *testing.T, fn func(t *testing.T, mk mkEngine)) {
	for _, s := range stores {
		t.Run(s.name, func(t *testing.T) { fn(t, s.mk) })
	}
}

func newEngine(env *sim.Env, mk mkEngine) (*Engine, *instantSink) {
	sink := &instantSink{}
	log := wal.NewLog(env, sink, wal.Config{GroupBytes: 1, GroupTimeout: time.Microsecond})
	return mk(env, log), sink
}

func TestPutGetCommit(t *testing.T) {
	eachStore(t, func(t *testing.T, mk mkEngine) {
		env := sim.NewEnv(1)
		eng, _ := newEngine(env, mk)
		eng.CreateTable("acct")
		env.Go("tx", func(p *sim.Proc) {
			tx := eng.Begin()
			tx.PutOwnedIn(eng.Table("acct"), "alice", []byte("100"))
			if err := tx.Commit(p); err != nil {
				t.Errorf("commit: %v", err)
			}
			if v, ok := eng.Read("acct", "alice"); !ok || string(v) != "100" {
				t.Errorf("read back %q ok=%v", v, ok)
			}
		})
		env.RunUntil(time.Second)
		if c, a := eng.Stats(); c != 1 || a != 0 {
			t.Fatalf("stats = %d/%d", c, a)
		}
	})
}

func TestReadYourWrites(t *testing.T) {
	eachStore(t, func(t *testing.T, mk mkEngine) {
		env := sim.NewEnv(1)
		eng, _ := newEngine(env, mk)
		eng.CreateTable("t")
		env.Go("tx", func(p *sim.Proc) {
			tx := eng.Begin()
			tx.PutOwnedIn(eng.Table("t"), "k", []byte("v1"))
			if v, ok := tx.GetIn(eng.Table("t"), "k"); !ok || string(v) != "v1" {
				t.Error("did not see own write")
			}
			tx.DeleteIn(eng.Table("t"), "k")
			if _, ok := tx.GetIn(eng.Table("t"), "k"); ok {
				t.Error("saw own deleted row")
			}
			tx.Abort()
		})
		env.RunUntil(time.Second)
	})
}

func TestConflictAborts(t *testing.T) {
	eachStore(t, func(t *testing.T, mk mkEngine) {
		env := sim.NewEnv(1)
		eng, _ := newEngine(env, mk)
		eng.CreateTable("t")
		var errA, errB error
		env.Go("setup", func(p *sim.Proc) {
			tx := eng.Begin()
			tx.PutOwnedIn(eng.Table("t"), "hot", []byte("v0"))
			tx.Commit(p)

			a := eng.Begin()
			b := eng.Begin()
			a.GetIn(eng.Table("t"), "hot")
			b.GetIn(eng.Table("t"), "hot")
			a.PutOwnedIn(eng.Table("t"), "hot", []byte("a"))
			b.PutOwnedIn(eng.Table("t"), "hot", []byte("b"))
			errA = a.Commit(p) // commits first: ok
			errB = b.Commit(p) // observed the pre-a version: conflict
		})
		env.RunUntil(time.Second)
		if errA != nil {
			t.Fatalf("first committer failed: %v", errA)
		}
		if errB != ErrConflict {
			t.Fatalf("second committer err = %v, want ErrConflict", errB)
		}
		if v, _ := eng.Read("t", "hot"); string(v) != "a" {
			t.Fatalf("final value %q", v)
		}
	})
}

func TestConflictOnPhantomInsert(t *testing.T) {
	eachStore(t, func(t *testing.T, mk mkEngine) {
		env := sim.NewEnv(1)
		eng, _ := newEngine(env, mk)
		eng.CreateTable("t")
		env.Go("tx", func(p *sim.Proc) {
			a := eng.Begin()
			if _, ok := a.GetIn(eng.Table("t"), "new"); ok {
				t.Error("phantom row exists")
			}
			b := eng.Begin()
			b.PutOwnedIn(eng.Table("t"), "new", []byte("x"))
			b.Commit(p)
			a.PutOwnedIn(eng.Table("t"), "other", []byte("y"))
			if err := a.Commit(p); err != ErrConflict {
				t.Errorf("read-of-absent-then-inserted err = %v, want conflict", err)
			}
		})
		env.RunUntil(time.Second)
	})
}

func TestDoubleCommitRejected(t *testing.T) {
	eachStore(t, func(t *testing.T, mk mkEngine) {
		env := sim.NewEnv(1)
		eng, _ := newEngine(env, mk)
		env.Go("tx", func(p *sim.Proc) {
			tx := eng.Begin()
			tx.PutOwnedIn(eng.Table("t"), "k", []byte("v"))
			tx.Commit(p)
			if err := tx.Commit(p); err != ErrTxDone {
				t.Errorf("second commit: %v", err)
			}
		})
		env.RunUntil(time.Second)
	})
}

func TestDeleteAndTombstoneConflict(t *testing.T) {
	eachStore(t, func(t *testing.T, mk mkEngine) {
		env := sim.NewEnv(1)
		eng, _ := newEngine(env, mk)
		eng.CreateTable("t")
		env.Go("tx", func(p *sim.Proc) {
			tx := eng.Begin()
			tx.PutOwnedIn(eng.Table("t"), "k", []byte("v"))
			tx.Commit(p)

			del := eng.Begin()
			del.DeleteIn(eng.Table("t"), "k")
			del.Commit(p)
			if _, ok := eng.Read("t", "k"); ok {
				t.Error("row visible after delete")
			}
			// A reader that saw the tombstone version conflicts with a rewrite.
			r := eng.Begin()
			if _, ok := r.GetIn(eng.Table("t"), "k"); ok {
				t.Error("tx read deleted row")
			}
			w := eng.Begin()
			w.PutOwnedIn(eng.Table("t"), "k", []byte("v2"))
			w.Commit(p)
			r.PutOwnedIn(eng.Table("t"), "x", []byte("y"))
			if err := r.Commit(p); err != ErrConflict {
				t.Errorf("stale tombstone read committed: %v", err)
			}
		})
		env.RunUntil(time.Second)
	})
}

func TestRecoveryRebuildsIdenticalState(t *testing.T) {
	eachStore(t, func(t *testing.T, mk mkEngine) {
		env := sim.NewEnv(1)
		eng, sink := newEngine(env, mk)
		eng.CreateTable("t")
		rng := rand.New(rand.NewSource(7))
		env.Go("load", func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				tx := eng.Begin()
				key := string(rune('a' + rng.Intn(20)))
				switch rng.Intn(3) {
				case 0, 1:
					val := make([]byte, rng.Intn(50)+1)
					rng.Read(val)
					tx.PutOwnedIn(eng.Table("t"), key, val)
				case 2:
					tx.DeleteIn(eng.Table("t"), key)
				}
				if err := tx.Commit(p); err != nil {
					t.Errorf("commit %d: %v", i, err)
				}
			}
		})
		env.RunUntil(time.Minute)

		recovered := mk(env, nil)
		if err := recovered.Recover(wal.DecodeAll(sink.data)); err != nil {
			t.Fatalf("recover: %v", err)
		}
		if eng.Fingerprint() != recovered.Fingerprint() {
			t.Fatal("recovered state differs from original")
		}
	})
}

func TestRecoveryOfTruncatedLogIsPrefix(t *testing.T) {
	eachStore(t, func(t *testing.T, mk mkEngine) {
		env := sim.NewEnv(1)
		eng, sink := newEngine(env, mk)
		eng.CreateTable("t")
		env.Go("load", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				tx := eng.Begin()
				tx.PutOwnedIn(eng.Table("t"), string(rune('a'+i)), []byte{byte(i)})
				tx.Commit(p)
			}
		})
		env.RunUntil(time.Second)
		// Chop mid-record: recovery applies only whole records.
		cut := sink.data[:len(sink.data)-5]
		recovered := mk(env, nil)
		if err := recovered.Recover(wal.DecodeAll(cut)); err != nil {
			t.Fatalf("recover: %v", err)
		}
		if got, want := recovered.RowCountIn(nil, "t"), 9; got != want {
			t.Fatalf("recovered rows = %d, want %d (last record lost)", got, want)
		}
	})
}

func TestFollowerConvergesAcrossArbitraryChunking(t *testing.T) {
	eachStore(t, func(t *testing.T, mk mkEngine) {
		f := func(seed int64) bool {
			env := sim.NewEnv(1)
			eng, sink := newEngine(env, mk)
			eng.CreateTable("t")
			rng := rand.New(rand.NewSource(seed))
			env.Go("load", func(p *sim.Proc) {
				for i := 0; i < 50; i++ {
					tx := eng.Begin()
					val := make([]byte, rng.Intn(80))
					rng.Read(val)
					tx.PutOwnedIn(eng.Table("t"), string(rune('a'+rng.Intn(10))), val)
					tx.Commit(p)
				}
			})
			env.RunUntil(time.Minute)

			follower := NewFollower(mk(env, nil))
			stream := sink.data
			for len(stream) > 0 {
				n := rng.Intn(64) + 1
				if n > len(stream) {
					n = len(stream)
				}
				if err := follower.Feed(stream[:n]); err != nil {
					return false
				}
				stream = stream[n:]
			}
			return follower.Engine().Fingerprint() == eng.Fingerprint() &&
				follower.Transactions() == 50
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPagedFollowerFrontierIsTheStreamEnd feeds a paged follower a stream
// in random chunks. Its records carry their stream LSNs, so the frontier
// its checkpoint cuts at is the stream's end, not one record's length.
func TestPagedFollowerFrontierIsTheStreamEnd(t *testing.T) {
	mk := stores[1].mk
	env := sim.NewEnv(1)
	eng, sink := newEngine(env, mk)
	eng.CreateTable("t")
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			tx := eng.Begin()
			tx.PutOwnedIn(eng.Table("t"), fmt.Sprintf("k%d", i%7), make([]byte, 10+i))
			if err := tx.Commit(p); err != nil {
				t.Error(err)
			}
		}
	})
	env.RunUntil(time.Minute)
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		follower := NewFollower(mk(sim.NewEnv(1), nil))
		for stream := sink.data; len(stream) > 0; {
			n := min(rng.Intn(64)+1, len(stream))
			if err := follower.Feed(stream[:n]); err != nil {
				t.Fatal(err)
			}
			stream = stream[n:]
		}
		ck, err := follower.Engine().BeginCheckpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		if ck.StartLSN != int64(len(sink.data)) {
			t.Fatalf("seed %d: checkpoint StartLSN %d, want the stream's end %d", seed, ck.StartLSN, len(sink.data))
		}
	}
}

// TestFollowerCountsAppliedWriteSets feeds a follower a PREPARE, then
// three redo records and the PREPARE's COMMITP. A PREPARE applies nothing,
// so it is not a transaction until its COMMITP applies its write set.
func TestFollowerCountsAppliedWriteSets(t *testing.T) {
	eachStore(t, func(t *testing.T, mk mkEngine) {
		writes := encodeWrites([]writeOp{{tab: Table{name: "t"}, key: "k", val: []byte("v")}})
		follower := NewFollower(mk(sim.NewEnv(1), nil))
		if err := follower.Feed(wal.Record{TxID: 9, Payload: EncodeControl(KindPrepare, 9, 0, nil, writes)}.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if n := follower.Transactions(); n != 0 {
			t.Fatalf("a PREPARE with no COMMITP: Transactions() = %d, want 0", n)
		}
		var stream []byte
		for i := int64(1); i <= 3; i++ {
			stream = wal.Record{TxID: i, Payload: writes}.Encode(stream)
		}
		stream = wal.Record{TxID: 9, Payload: EncodeControl(KindCommitP, 9, 0, nil, nil)}.Encode(stream)
		if err := follower.Feed(stream); err != nil {
			t.Fatal(err)
		}
		if n := follower.Transactions(); n != 4 {
			t.Fatalf("then 3 redo records and the COMMITP: Transactions() = %d, want 4", n)
		}
	})
}

func TestReadOnlyTxSkipsLog(t *testing.T) {
	eachStore(t, func(t *testing.T, mk mkEngine) {
		env := sim.NewEnv(1)
		eng, sink := newEngine(env, mk)
		eng.CreateTable("t")
		env.Go("tx", func(p *sim.Proc) {
			tx := eng.Begin()
			tx.GetIn(eng.Table("t"), "nothing")
			if err := tx.Commit(p); err != nil {
				t.Errorf("read-only commit: %v", err)
			}
		})
		env.RunUntil(time.Second)
		if len(sink.data) != 0 {
			t.Fatal("read-only transaction wrote to the log")
		}
	})
}

func TestFingerprintSensitivity(t *testing.T) {
	eachStore(t, func(t *testing.T, mk mkEngine) {
		env := sim.NewEnv(1)
		a, _ := newEngine(env, mk)
		b, _ := newEngine(env, mk)
		a.CreateTable("t")
		b.CreateTable("t")
		env.Go("tx", func(p *sim.Proc) {
			ta := a.Begin()
			ta.PutOwnedIn(a.Table("t"), "k", []byte("v1"))
			ta.Commit(p)
			tb := b.Begin()
			tb.PutOwnedIn(b.Table("t"), "k", []byte("v2"))
			tb.Commit(p)
		})
		env.RunUntil(time.Second)
		if a.Fingerprint() == b.Fingerprint() {
			t.Fatal("fingerprints collide on different values")
		}
	})
}

func TestEncodeDecodeWritesRoundTrip(t *testing.T) {
	ws := []writeOp{
		{tab: Table{name: "warehouse"}, key: "w1", val: bytes.Repeat([]byte{7}, 90)},
		{tab: Table{name: "stock"}, key: "s:1:100", delete: true},
		{tab: Table{name: "t"}, key: "", val: nil},
	}
	got, err := decodeWrites(nil, encodeWrites(ws))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("ops = %d", len(got))
	}
	if got[0].tab.name != "warehouse" || !bytes.Equal(got[0].val, ws[0].val) {
		t.Fatal("op 0 mismatch")
	}
	if !got[1].delete || got[1].key != "s:1:100" {
		t.Fatal("op 1 mismatch")
	}
}

// TestControlOpsKinds pins how a payload's first bytes name its kind: a
// redo record of any real op count, either reserved count with a body
// byte, and anything too short to be a control record.
func TestControlOpsKinds(t *testing.T) {
	redo := encodeWrites([]writeOp{{tab: Table{name: "t"}, key: "k", val: []byte("v")}})
	cases := []struct {
		name    string
		payload []byte
		want    uint16
	}{
		{"redo", redo, 0},
		{"redo 0xFFFD ops", []byte{0xFD, 0xFF, 0}, 0},
		{"checkpoint", []byte{0xFE, 0xFF, 1}, CheckpointOps},
		{"2PC", []byte{0xFF, 0xFF, 2, 0, 0}, TwoPCOps},
		{"checkpoint count alone", []byte{0xFE, 0xFF}, 0},
		{"2PC count alone", []byte{0xFF, 0xFF}, 0},
		{"one byte", []byte{0xFF}, 0},
		{"empty", nil, 0},
	}
	for _, c := range cases {
		if got := ControlOps(c.payload); got != c.want {
			t.Errorf("%s: ControlOps = %#x, want %#x", c.name, got, c.want)
		}
		if got := IsControlPayload(c.payload); got != (c.want != 0) {
			t.Errorf("%s: IsControlPayload = %v", c.name, got)
		}
	}
}

func TestDecodeWritesRejectsTruncation(t *testing.T) {
	ws := []writeOp{{tab: Table{name: "t"}, key: "k", val: []byte("hello")}}
	enc := encodeWrites(ws)
	for cut := 1; cut < len(enc); cut++ {
		if _, err := decodeWrites(nil, enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// --- store-differential cases ------------------------------------------------

// dump renders every row of every table — key, version, value or tombstone
// — so two engines can be compared cell for cell, not just by fingerprint.
func dump(t *testing.T, e *Engine) string {
	var sb strings.Builder
	for _, n := range e.Tables() {
		err := e.tables[n].rows.Scan(nil, func(k string, it btree.Item) bool {
			fmt.Fprintf(&sb, "%s/%s v%d tomb=%v %x\n", n, k, it.Ver, it.Tomb, it.Val)
			return true
		})
		if err != nil {
			t.Fatalf("scan %s: %v", n, err)
		}
	}
	return sb.String()
}

// sameOnBothStores runs scenario once per store and requires the engines
// it returns (handed back in stores order) to agree on fingerprint, live
// row counts and every cell.
func sameOnBothStores(t *testing.T, scenario func(t *testing.T, mk mkEngine) *Engine) []*Engine {
	var engs []*Engine
	eachStore(t, func(t *testing.T, mk mkEngine) { engs = append(engs, scenario(t, mk)) })
	if t.Failed() {
		return nil
	}
	a, b := engs[0], engs[1]
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		t.Errorf("fingerprint: row map %016x, tree %016x", fa, fb)
	}
	for _, n := range a.Tables() {
		if ra, rb := a.RowCountIn(nil, n), b.RowCountIn(nil, n); ra != rb {
			t.Errorf("live rows in %q: row map %d, tree %d", n, ra, rb)
		}
	}
	if da, db := dump(t, a), dump(t, b); da != db {
		t.Errorf("cells differ\nrow map:\n%stree:\n%s", da, db)
	}
	return engs
}

func TestPrepareFencesThenCommitPrepared(t *testing.T) {
	sameOnBothStores(t, func(t *testing.T, mk mkEngine) *Engine {
		env := sim.NewEnv(1)
		eng, _ := newEngine(env, mk)
		for i := 0; i < 40; i++ { // enough rows that the tree has split
			eng.LoadRow("t", fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 24))
		}
		env.Go("2pc", func(p *sim.Proc) {
			tab := eng.Table("t")
			dist := eng.BeginP(p)
			dist.GetIn(tab, "k03")
			dist.PutOwnedIn(tab, "k07", []byte("prepared"))
			dist.DeleteIn(tab, "k11")
			if err := dist.Prepare(); err != nil {
				t.Errorf("prepare: %v", err)
				return
			}
			// Foreign writers bounce off both the pinned write and the
			// pinned read; a foreign reader of a pinned row commits.
			for _, k := range []string{"k07", "k03"} {
				w := eng.BeginP(p)
				w.PutOwnedIn(tab, k, []byte("foreign"))
				if err := w.Commit(p); err != ErrConflict {
					t.Errorf("foreign write to pinned %s: err = %v, want ErrConflict", k, err)
				}
			}
			r := eng.BeginP(p)
			r.GetIn(tab, "k07")
			r.PutOwnedIn(tab, "k20", []byte("reader"))
			if err := r.Commit(p); err != nil {
				t.Errorf("foreign read of a pinned row: %v", err)
			}
			other := eng.BeginP(p)
			other.GetIn(tab, "k03")
			other.PutOwnedIn(tab, "k30", []byte("x"))
			if err := other.Prepare(); err != ErrConflict {
				t.Errorf("second prepare sharing a pinned read: err = %v, want ErrConflict", err)
			}

			dist.CommitPrepared(9001)
			w := eng.BeginP(p)
			w.PutOwnedIn(tab, "k03", []byte("after"))
			if err := w.Commit(p); err != nil {
				t.Errorf("write after the pins were released: %v", err)
			}
		})
		env.RunUntil(time.Second)
		if v, ok := eng.Read("t", "k07"); !ok || string(v) != "prepared" {
			t.Errorf("prepared write reads back %q ok=%v", v, ok)
		}
		if _, ok := eng.Read("t", "k11"); ok {
			t.Error("prepared delete left the row visible")
		}
		if c, a := eng.Stats(); c != 3 || a != 3 {
			t.Errorf("stats = %d commits / %d aborts, want 3/3", c, a)
		}
		return eng
	})
}

func TestWriteSetAndStreamReplayAgree(t *testing.T) {
	// One source history on a row-map engine: a redo stream plus a 2PC
	// write set that rides a DECISION record, not a redo record.
	env := sim.NewEnv(1)
	src, sink := newEngine(env, New)
	var writeSet []byte
	env.Go("load", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 120; i++ {
			tx := src.Begin()
			key := fmt.Sprintf("k%02d", rng.Intn(30))
			if rng.Intn(4) == 0 {
				tx.DeleteIn(src.Table("t"), key)
			} else {
				val := make([]byte, rng.Intn(40)) // length 0 included
				rng.Read(val)
				tx.PutOwnedIn(src.Table("t"), key, val)
			}
			tx.Commit(p)
		}
		tx := src.Begin()
		tx.PutOwnedIn(src.Table("t"), "k05", []byte("decided"))
		tx.PutOwnedIn(src.Table("u"), "fresh-table", nil)
		tx.DeleteIn(src.Table("t"), "k06")
		writeSet = tx.EncodedWrites()
		tx.Prepare()
		tx.CommitPrepared(7000)
	})
	env.RunUntil(time.Minute)

	decision := wal.Record{TxID: 7000, Payload: EncodeControl(KindDecision, 7000, 0, []int{1}, writeSet)}
	stream := decision.Encode(append([]byte(nil), sink.data...))
	recovered := sameOnBothStores(t, func(t *testing.T, mk mkEngine) *Engine {
		eng := mk(sim.NewEnv(1), nil)
		if err := eng.Recover(wal.DecodeAll(stream)); err != nil {
			t.Fatalf("recover: %v", err)
		}
		return eng
	})
	for i, eng := range recovered {
		if got, want := dump(t, eng), dump(t, src); got != want {
			t.Errorf("%s replay differs from the live engine\nreplay:\n%slive:\n%s", stores[i].name, got, want)
		}
	}
}

func TestEmptyValueIsALiveRow(t *testing.T) {
	sameOnBothStores(t, func(t *testing.T, mk mkEngine) *Engine {
		env := sim.NewEnv(1)
		eng, sink := newEngine(env, mk)
		eng.LoadRow("t", "loaded", nil)
		env.Go("tx", func(p *sim.Proc) {
			tx := eng.Begin()
			tx.PutOwnedIn(eng.Table("t"), "put", []byte{})
			tx.PutOwnedIn(eng.Table("t"), "owned", nil)
			tx.DeleteIn(eng.Table("t"), "gone")
			tx.Commit(p)
			r := eng.Begin()
			if v, ok := r.GetIn(eng.Table("t"), "put"); !ok || len(v) != 0 {
				t.Errorf("empty row reads %q ok=%v inside a transaction", v, ok)
			}
			r.Abort()
		})
		env.RunUntil(time.Second)
		for _, k := range []string{"loaded", "put", "owned"} {
			if v, ok := eng.Read("t", k); !ok || len(v) != 0 {
				t.Errorf("empty row %q reads %q ok=%v", k, v, ok)
			}
		}
		if got := eng.RowCountIn(nil, "t"); got != 3 {
			t.Errorf("live rows = %d, want 3 (the empty rows are not tombstones)", got)
		}
		// valLen == 0 on the redo stream decodes to the same live row.
		replayed := mk(sim.NewEnv(1), nil)
		replayed.LoadRow("t", "loaded", nil)
		if err := replayed.Recover(wal.DecodeAll(sink.data)); err != nil {
			t.Fatalf("recover: %v", err)
		}
		if replayed.Fingerprint() != eng.Fingerprint() || replayed.RowCountIn(nil, "t") != 3 {
			t.Errorf("replay of empty values: %d live rows, fingerprint match %v",
				replayed.RowCountIn(nil, "t"), replayed.Fingerprint() == eng.Fingerprint())
		}
		return eng
	})
}

// TestFinishedTxTouchesNothing pokes a finished transaction through every
// method while a second transaction on the same engine is live. Finishing
// hands the read/write sets back to the engine and the next BeginP hands
// them out again, so a late call that still reached them would write into
// the live transaction's sets — or, with the fields nil, into a nil map.
func TestFinishedTxTouchesNothing(t *testing.T) {
	finishers := []struct {
		name string
		end  func(p *sim.Proc, tx *Tx)
	}{
		{"commit", func(p *sim.Proc, tx *Tx) {
			if err := tx.Commit(p); err != nil {
				t.Errorf("commit: %v", err)
			}
		}},
		{"conflict", func(p *sim.Proc, tx *Tx) {
			w := tx.eng.BeginP(p)
			w.PutOwnedIn(tx.eng.Table("t"), "seen", []byte("newer"))
			if err := w.Commit(p); err != nil {
				t.Errorf("setting up the conflict: %v", err)
			}
			if err := tx.Commit(p); err != ErrConflict {
				t.Errorf("commit over a stale read: err = %v, want ErrConflict", err)
			}
		}},
		{"abort", func(_ *sim.Proc, tx *Tx) { tx.Abort() }},
		{"commit-prepared", func(_ *sim.Proc, tx *Tx) {
			if err := tx.Prepare(); err != nil {
				t.Errorf("prepare: %v", err)
			}
			// A prepared transaction keeps its sets: the decision record
			// and the pins read them.
			if got := len(tx.EncodedWrites()); got <= 2 {
				t.Errorf("prepared transaction encodes %d bytes of writes, want its write set", got)
			}
			tx.CommitPrepared(9001)
		}},
	}
	for _, fin := range finishers {
		eachStore(t, func(t *testing.T, mk mkEngine) {
			t.Run(fin.name, func(t *testing.T) {
				env := sim.NewEnv(1)
				eng, _ := newEngine(env, mk)
				for _, k := range []string{"seen", "a", "b", "c"} {
					eng.LoadRow("t", k, []byte("v0"))
				}
				tab := eng.Table("t")
				env.Go("tx", func(p *sim.Proc) {
					dead := eng.BeginP(p)
					dead.GetIn(tab, "seen")
					dead.PutOwnedIn(tab, "mine", []byte("x"))
					fin.end(p, dead)
					if dead.reads != nil || dead.writes != nil || dead.wIndex != nil || dead.keys != nil {
						t.Errorf("finished transaction still holds sets: %d reads, %d writes, index %v, %d key bytes",
							len(dead.reads), len(dead.writes), dead.wIndex != nil, len(dead.keys))
					}

					// live takes over the sets dead handed back.
					live := eng.BeginP(p)
					live.GetIn(tab, "a")
					live.PutOwnedIn(tab, "b", []byte("live"))

					if v, ok := dead.GetIn(tab, "c"); !ok || string(v) != "v0" {
						t.Errorf("finished GetIn reads %q ok=%v, want the stored row", v, ok)
					}
					if v, ok := dead.GetIn(tab, "b"); !ok || string(v) != "v0" {
						t.Errorf("finished GetIn of a row the live transaction wrote reads %q ok=%v, want the stored row", v, ok)
					}
					dead.PutOwnedIn(tab, "a", []byte("late"))
					dead.PutOwnedIn(tab, "b", []byte("late"))
					dead.DeleteIn(tab, "c")
					if got := len(dead.EncodedWrites()); got != 2 {
						t.Errorf("finished transaction encodes %d bytes of writes, want an empty write set", got)
					}
					if err := dead.Commit(p); err != ErrTxDone {
						t.Errorf("Commit on a finished transaction: %v, want ErrTxDone", err)
					}
					if _, err := dead.CommitAsync(); err != ErrTxDone {
						t.Errorf("CommitAsync on a finished transaction: %v, want ErrTxDone", err)
					}
					if err := dead.Prepare(); err != ErrTxDone {
						t.Errorf("Prepare on a finished transaction: %v, want ErrTxDone", err)
					}
					commits, aborts := eng.Stats()
					dead.Abort()
					dead.CommitPrepared(9002)
					if c, a := eng.Stats(); c != commits || a != aborts {
						t.Errorf("Abort/CommitPrepared on a finished transaction moved the stats %d/%d -> %d/%d", commits, aborts, c, a)
					}

					if len(live.reads) != 1 || live.reads[0].key != "a" || live.reads[0].ver != 0 {
						t.Errorf("live read set = %+v, want the one read of a at version 0", live.reads)
					}
					if len(live.writes) != 1 || live.writes[0].key != "b" || string(live.writes[0].val) != "live" || len(live.wIndex) != 1 {
						t.Errorf("live write set = %+v (index %v), want the one write of b", live.writes, live.wIndex)
					}
					if err := live.Commit(p); err != nil {
						t.Errorf("live commit: %v", err)
					}
				})
				env.RunUntil(time.Second)
				for k, want := range map[string]string{"a": "v0", "b": "live", "c": "v0"} {
					if v, ok := eng.Read("t", k); !ok || string(v) != want {
						t.Errorf("row %s reads %q ok=%v after the run, want %q", k, v, ok, want)
					}
				}
				if _, ok := eng.Read("t", "d"); ok {
					t.Error("a write made through a finished transaction reached the store")
				}
			})
		})
	}
}

// TestReadTwiceValidatesEveryVersion: the read set is append-only, so a
// row read before and after another transaction's commit is in it at both
// versions and cannot validate — under the old last-assignment-wins map
// the second read hid the first.
func TestReadTwiceValidatesEveryVersion(t *testing.T) {
	eachStore(t, func(t *testing.T, mk mkEngine) {
		env := sim.NewEnv(1)
		eng, _ := newEngine(env, mk)
		eng.LoadRow("t", "k", []byte("v0"))
		tab := eng.Table("t")
		env.Go("tx", func(p *sim.Proc) {
			same := eng.BeginP(p)
			same.GetIn(tab, "k")
			same.GetIn(tab, "k")
			same.PutOwnedIn(tab, "x", []byte("1"))
			if err := same.Commit(p); err != nil {
				t.Errorf("two reads at one version: %v", err)
			}

			r := eng.BeginP(p)
			r.GetIn(tab, "k")
			w := eng.BeginP(p)
			w.PutOwnedIn(tab, "k", []byte("v1"))
			if err := w.Commit(p); err != nil {
				t.Errorf("writer: %v", err)
			}
			r.GetIn(tab, "k")
			r.PutOwnedIn(tab, "y", []byte("2"))
			if err := r.Commit(p); err != ErrConflict {
				t.Errorf("reads at two versions of one row: err = %v, want ErrConflict", err)
			}
		})
		env.RunUntil(time.Second)
	})
}

// TestGetInKeepsNoCallerKey holds GetIn's key contract: the key is the
// caller's again once the call returns. A terminal names a row it only
// reads with a view of a scratch buffer that it rewrites for the next key,
// so the read set must keep bytes of its own — validating whatever the
// buffer says by commit time checks a different row. A reads k1 through a
// view, the buffer is rewritten to k2, then B commits a write: to k1, which
// A must conflict with, or to k2, which A never read.
func TestGetInKeepsNoCallerKey(t *testing.T) {
	cases := []struct {
		name, write string
		want        error
	}{
		{"writes-the-row-read", "k1", ErrConflict},
		{"writes-what-the-buffer-says-now", "k2", nil},
	}
	eachStore(t, func(t *testing.T, mk mkEngine) {
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				env := sim.NewEnv(1)
				eng, _ := newEngine(env, mk)
				eng.LoadRow("t", "k1", []byte("v0"))
				eng.LoadRow("t", "k2", []byte("v0"))
				tab := eng.Table("t")
				env.Go("tx", func(p *sim.Proc) {
					buf := []byte("k1")
					a := eng.BeginP(p)
					if _, ok := a.GetIn(tab, unsafe.String(&buf[0], len(buf))); !ok {
						t.Error("k1 not found")
					}
					buf[1] = '2'
					b := eng.BeginP(p)
					b.PutOwnedIn(tab, c.write, []byte("b"))
					if err := b.Commit(p); err != nil {
						t.Errorf("writer: %v", err)
					}
					a.PutOwnedIn(tab, "x", []byte("a"))
					if err := a.Commit(p); err != c.want {
						t.Errorf("reader of k1 after a write to %s: err = %v, want %v", c.write, err, c.want)
					}
				})
				env.RunUntil(time.Second)
			})
		}
	})
}

// TestPutInKeepsNoCallerKey holds the write methods' key contract: like
// GetIn, PutOwnedIn and DeleteIn borrow their key, so a terminal may name
// a row it writes with a view of a scratch buffer it rewrites for the
// next key. One transaction inserts k3, updates k1 and deletes k2 through
// one buffer and a second updates k1 and inserts k4 across Prepare and
// CommitPrepared; the buffer is rewritten after every call, before and
// after each commit and between the two phases. The store must hold
// exactly the rows named, read-your-writes must find them under fresh
// names, a pin must fence k4, and the redo record and the encoded write
// set must carry the keys as they were when written.
func TestPutInKeepsNoCallerKey(t *testing.T) {
	eachStore(t, func(t *testing.T, mk mkEngine) {
		env := sim.NewEnv(1)
		eng, sink := newEngine(env, mk)
		eng.LoadRow("t", "k1", []byte("v0"))
		eng.LoadRow("t", "k2", []byte("v0"))
		tab := eng.Table("t")
		buf := make([]byte, 2)
		name := func(k string) string {
			copy(buf, k)
			return unsafe.String(&buf[0], len(buf))
		}
		keysOf := func(payload []byte) (keys []string) {
			ws, err := decodeWrites(nil, payload)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			for _, w := range ws {
				keys = append(keys, w.key)
			}
			return keys
		}
		var encoded []byte
		var first int64
		env.Go("tx", func(p *sim.Proc) {
			a := eng.BeginP(p)
			first = a.ID()
			a.PutOwnedIn(tab, name("k3"), []byte("new"))
			name("zz")
			a.PutOwnedIn(tab, name("k1"), []byte("upd"))
			name("zz")
			a.DeleteIn(tab, name("k2"))
			name("zz")
			for k, want := range map[string]string{"k3": "new", "k1": "upd", "k2": ""} {
				if v, ok := a.GetIn(tab, name(k)); ok != (want != "") || string(v) != want {
					t.Errorf("read-your-writes of %s: %q ok=%v, want %q", k, v, ok, want)
				}
			}
			if _, ok := a.GetIn(tab, name("zz")); ok {
				t.Error("a row named only by the rewritten buffer reads back")
			}
			name("zz")
			if err := a.Commit(p); err != nil {
				t.Errorf("commit: %v", err)
			}
			name("zz")

			b := eng.BeginP(p)
			b.PutOwnedIn(tab, name("k1"), []byte("prep"))
			b.PutOwnedIn(tab, name("k4"), []byte("prep"))
			name("zz")
			if err := b.Prepare(); err != nil {
				t.Errorf("prepare: %v", err)
				return
			}
			name("zz")
			w := eng.BeginP(p)
			w.PutOwnedIn(tab, name("k4"), []byte("foreign"))
			name("zz")
			if err := w.Commit(p); err != ErrConflict {
				t.Errorf("write to k4, pinned by the prepared transaction: err = %v, want ErrConflict", err)
			}
			name("zz")
			encoded = b.EncodedWrites()
			b.CommitPrepared(9001)
			name("zz")
		})
		env.RunUntil(time.Second)

		want := fmt.Sprintf("t/k1 v9001 tomb=false %x\nt/k2 v%d tomb=true \nt/k3 v%d tomb=false %x\nt/k4 v9001 tomb=false %x\n",
			"prep", first, first, "new", "prep")
		if got := dump(t, eng); got != want {
			t.Errorf("store holds\n%swant\n%s", got, want)
		}
		recs := wal.DecodeAll(sink.data)
		if len(recs) != 1 || recs[0].TxID != first {
			t.Fatalf("%d redo records, want one, by transaction %d", len(recs), first)
		}
		if got := fmt.Sprint(keysOf(recs[0].Payload)); got != "[k3 k1 k2]" {
			t.Errorf("redo record keys %s, want [k3 k1 k2]", got)
		}
		if got := fmt.Sprint(keysOf(encoded)); got != "[k1 k4]" {
			t.Errorf("prepared write set keys %s, want [k1 k4]", got)
		}
	})
}

// TestPreparedPinsSurviveSetRecycling: a prepared transaction's pins are
// keyed by its read set, whose key bytes live in its own sets, so they
// must stay put while other transactions cycle through Engine.spare. The
// prepared reader and the 1 000 after it all name rows through one
// rewritten scratch buffer, with keys of one length: had the prepared
// transaction's key bytes gone back to the engine, a later transaction
// would overwrite "k03" with the name of a row it read, and the write to
// k03 below would find no pin.
func TestPreparedPinsSurviveSetRecycling(t *testing.T) {
	eachStore(t, func(t *testing.T, mk mkEngine) {
		env := sim.NewEnv(1)
		eng, _ := newEngine(env, mk)
		for i := 0; i < 40; i++ {
			eng.LoadRow("t", fmt.Sprintf("k%02d", i), []byte("v0"))
		}
		tab := eng.Table("t")
		env.Go("tx", func(p *sim.Proc) {
			buf := []byte("k00")
			read := func(tx *Tx, i int) {
				buf[1], buf[2] = '0'+byte(i/10), '0'+byte(i%10)
				tx.GetIn(tab, unsafe.String(&buf[0], len(buf)))
			}
			a := eng.BeginP(p)
			read(a, 3)
			read(a, 5)
			a.PutOwnedIn(tab, "k07", []byte("prepared"))
			if err := a.Prepare(); err != nil {
				t.Errorf("prepare: %v", err)
				return
			}
			for i := 0; i < 1000; i++ {
				tx := eng.BeginP(p)
				read(tx, 10+i%30)
				read(tx, 10+(i+7)%30)
				if i%2 == 0 {
					tx.Abort()
					continue
				}
				tx.PutOwnedIn(tab, fmt.Sprintf("k%02d", 10+i%30), []byte("x"))
				if err := tx.Commit(p); err != nil {
					t.Errorf("transaction %d: %v", i, err)
				}
			}
			for _, k := range []string{"k03", "k05", "k07"} {
				w := eng.BeginP(p)
				w.PutOwnedIn(tab, k, []byte("foreign"))
				if err := w.Commit(p); err != ErrConflict {
					t.Errorf("write to %s, pinned by the prepared transaction: err = %v, want ErrConflict", k, err)
				}
			}
			a.CommitPrepared(9001)
			if len(eng.pins) != 0 {
				t.Errorf("%d pins left after CommitPrepared", len(eng.pins))
			}
		})
		env.RunUntil(time.Second)
		if v, ok := eng.Read("t", "k07"); !ok || string(v) != "prepared" {
			t.Errorf("prepared write reads back %q ok=%v", v, ok)
		}
	})
}

// TestRowMapAllocations pins what the hot path allocates on a row-map
// engine, so the store interface cannot start boxing unnoticed: a repeat
// read allocates nothing (the read set grows by doubling, which rounds to
// zero per read), and a 4-read/2-write transaction on recycled sets
// allocates nothing either — its keys are copied into the recycled key
// bytes, an update rewrites the row's slot without touching the map's
// key, and here even the Tx stays on the stack.
func TestRowMapAllocations(t *testing.T) {
	eng := New(sim.NewEnv(1), nil)
	tab := eng.Table("t")
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		eng.LoadRow("t", k, []byte("value"))
	}
	vals := [2][]byte{[]byte("one"), []byte("two")}

	tx := eng.Begin()
	tx.GetIn(tab, "a")
	if n := testing.AllocsPerRun(200, func() { tx.GetIn(tab, "a") }); n != 0 {
		t.Errorf("repeat GetIn of an already-read key: %v allocs, want 0", n)
	}
	n := testing.AllocsPerRun(200, func() {
		tx := eng.Begin()
		for _, k := range keys {
			tx.GetIn(tab, k)
		}
		tx.PutOwnedIn(tab, "a", vals[0])
		tx.PutOwnedIn(tab, "b", vals[1])
		if _, err := tx.CommitAsync(); err != nil {
			t.Fatal(err)
		}
	})
	if n != commitAllocs {
		t.Errorf("4-read/2-write CommitAsync: %v allocs, want %d", n, commitAllocs)
	}
}

// commitAllocs is what TestRowMapAllocations' transaction allocates in
// steady state. It was 6 while every transaction made its own two maps and
// grew its write slice from empty (PR 11 to PR 17).
const commitAllocs = 0

// TestApplyRecordAllocations pins what replaying a redo record allocates
// — every replay, Follower.Feed included, decodes this way: a copy of
// each value, since a store installs the value as is. The ops go into the
// engine's reused slice, table names and keys are views into the payload,
// and a store copies a key only when it inserts the row; here every op
// updates or deletes a row the store already holds. With a string per
// table name and per key, replay allocated three objects per op (24
// here), and with an op slice per record one more (8).
func TestApplyRecordAllocations(t *testing.T) {
	eachStore(t, func(t *testing.T, mk mkEngine) {
		eng := mk(sim.NewEnv(1), nil)
		var ws []writeOp
		for i := 0; i < 8; i++ {
			k := fmt.Sprintf("k%d", i)
			eng.LoadRow("rows", k, []byte("v0"))
			w := writeOp{tab: Table{name: "rows"}, key: k, val: []byte("value")}
			if i == 7 {
				w.val, w.delete = nil, true
			}
			ws = append(ws, w)
		}
		recs := []wal.Record{{TxID: 1, Payload: encodeWrites(ws)}}
		n := testing.AllocsPerRun(100, func() {
			if _, err := eng.Replay(nil, recs, 0, nil); err != nil {
				t.Fatal(err)
			}
			recs[0].LSN += 100
		})
		if want := float64(7); n != want {
			t.Errorf("replaying 7 updates and a delete: %v allocs, want %v", n, want)
		}
	})
}
