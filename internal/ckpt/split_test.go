package ckpt

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"xssd/internal/btree"
	"xssd/internal/sim"
	"xssd/internal/wal"
)

// TestRecoveredTreeSplitsLikeTheLiveOne: a B+tree leaf decides how to
// split an ascending run from the split hint in its page image, so a
// paged engine recovered from a mid-run checkpoint plus its WAL tail must
// split exactly like the live engine on the next ascending inserts — the
// same page ids, the same images, the same allocation state. The live
// engine commits interleaved ascending runs over four district-like
// prefixes, checkpoints, commits a tail on two other prefixes, and then
// the next rows of the first four; the recovered engine, built from the
// checkpoint and the tail alone, applies those next rows too. Each run
// stops the first phase at a different length, so some run's crash finds
// a run's tail leaf exactly full and its next insert splits it.
func TestRecoveredTreeSplitsLikeTheLiveOne(t *testing.T) {
	val := bytes.Repeat([]byte{'v'}, 24)
	for run := 0; run < 16; run++ {
		rng := rand.New(rand.NewSource(int64(run)))
		h := newHarness(int64(run), 8)
		next := make([]int, 6)
		// commitRun commits one transaction of n ascending rows on prefix d.
		commitRun := func(p *sim.Proc, d, n int) {
			tx := h.eng.BeginP(p)
			for i := 0; i < n; i++ {
				tx.PutOwnedIn(h.eng.Table("kv"), fmt.Sprintf("ol:%d:%04d", d, next[d]), val)
				next[d]++
			}
			if err := tx.Commit(p); err != nil {
				t.Errorf("run %d: commit on prefix %d: %v", run, d, err)
			}
		}
		var crashAt int64 // stream length when the host dies
		done := false
		h.env.Go("workload", func(p *sim.Proc) {
			for rows := 0; rows < 60+run; {
				n := 1 + rng.Intn(5)
				commitRun(p, rng.Intn(4), n)
				rows += n
			}
			m := NewManager(h.eng, h.log, Config{})
			if ok, err := m.RunOnce(p); !ok || err != nil {
				t.Errorf("run %d: checkpoint: %v", run, err)
				return
			}
			for i := 0; i < 6; i++ { // the tail, on prefixes the checkpoint left alone
				commitRun(p, 4+i%2, 1+rng.Intn(5))
			}
			crashAt = h.log.DurableLSN()
			for i := 0; i < 24; i++ { // the next ascending rows
				commitRun(p, i%4, 1+rng.Intn(5))
			}
			done = true
		})
		h.env.RunUntil(time.Second)
		if !done {
			t.Fatalf("run %d: workload did not finish", run)
		}

		records := wal.DecodeAll(h.sink.data)
		rec, st, err := Recover(nil, sim.NewEnv(1), h.store, 8, records[:countBelow(records, crashAt)], nil)
		if err != nil {
			t.Fatalf("run %d: recover: %v", run, err)
		}
		if !st.Found || st.Tail == 0 {
			t.Fatalf("run %d: recovery found checkpoint %v, replayed %d records", run, st.Found, st.Tail)
		}
		if _, err := rec.Replay(nil, records, crashAt, nil); err != nil {
			t.Fatalf("run %d: the next rows on the recovered engine: %v", run, err)
		}

		live, got := snapshot(t, h.eng.Pager()), snapshot(t, rec.Pager())
		if live.NextID != got.NextID || !slices.Equal(live.Free, got.Free) || !slices.Equal(live.Parity, got.Parity) {
			t.Fatalf("run %d: allocation state: live next %d free %v, recovered next %d free %v",
				run, live.NextID, live.Free, got.NextID, got.Free)
		}
		if len(live.Images) != len(got.Images) {
			t.Fatalf("run %d: live engine dirtied %d pages, recovered %d", run, len(live.Images), len(got.Images))
		}
		for i, img := range live.Images {
			if g := got.Images[i]; g.ID != img.ID || !bytes.Equal(g.Data, img.Data) {
				t.Fatalf("run %d: dirty page %d: live page %d, recovered page %d, images equal %v",
					run, i, img.ID, g.ID, bytes.Equal(g.Data, img.Data))
			}
		}
		if lf, rf := h.eng.FingerprintIn(nil), rec.FingerprintIn(nil); lf != rf {
			t.Fatalf("run %d: live fingerprint %#x, recovered %#x", run, lf, rf)
		}
	}
}

// countBelow is the number of leading records that start below lsn.
func countBelow(records []wal.Record, lsn int64) int {
	return len(records) - len(wal.TailRecords(records, lsn))
}

// snapshot captures every dirty page of pg and its allocation state.
func snapshot(t *testing.T, pg *btree.Pager) btree.Snapshot {
	t.Helper()
	s, err := pg.SnapshotCheckpoint()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return s
}
