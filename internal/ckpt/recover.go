package ckpt

import (
	"fmt"

	"xssd/internal/btree"
	"xssd/internal/db"
	"xssd/internal/sim"
	"xssd/internal/wal"
)

// Stats describes one recovery: whether a complete checkpoint bounded
// the replay, and how much of the log it actually replayed.
type Stats struct {
	// Found is true when a store was given and a complete checkpoint
	// record was on the durable log (its images are durable by protocol
	// order).
	Found bool
	// StartLSN is the found checkpoint's replay cut (0 without one).
	StartLSN int64
	// Total counts the redo records on the stream (control records
	// excluded); a checkpoint-free recovery replays all of them.
	Total int
	// Tail counts the redo records actually replayed.
	Tail int
}

// Recover is the one procedure that turns a durable log stream into an
// engine. load seeds the pre-log state (bulk-loaded rows never hit the
// WAL) unless a checkpoint's images hold it. A nil store gives a row map
// that replays the whole stream. With a store and a checkpoint on the
// stream, the pager restores onto store (the device's page slots) and
// db.Engine.Replay walks the stream from Record.StartLSN; without one, a
// fresh memory-backed pager takes the whole stream, since the device
// pages are not trustworthy before the first complete checkpoint. An
// in-doubt PREPARE is presumed aborted unless records carry the COMMITP a
// cluster's resolver would have logged for it (shard.Replay).
func Recover(p *sim.Proc, env *sim.Env, store btree.PageStore, poolPages int, records []wal.Record, load func(*db.Engine)) (*db.Engine, Stats, error) {
	var st Stats
	var rec Record
	for i := len(records) - 1; store != nil && i >= 0; i-- {
		if IsCheckpointPayload(records[i].Payload) {
			r, err := Decode(records[i].Payload)
			if err != nil {
				// The record was appended whole after its images were
				// durable; a malformed one on the durable log is
				// corruption, not a crash artifact.
				return nil, st, fmt.Errorf("ckpt: recover: %w", err)
			}
			rec, st.Found, st.StartLSN = r, true, r.StartLSN
			break
		}
	}

	var eng *db.Engine
	switch {
	case store == nil:
		eng = db.New(env, nil)
	case st.Found:
		pg := btree.NewPager(store, btree.Config{PoolPages: poolPages})
		pg.Restore(rec.NextID, rec.Free, rec.Parity)
		eng = db.NewPaged(env, nil, pg)
		for name, root := range rec.Tables {
			eng.OpenPagedTable(name, root)
		}
	default:
		eng = db.NewPaged(env, nil, btree.NewPager(btree.NewMemStore(store.PageSize(), 1<<32), btree.Config{PoolPages: poolPages}))
	}
	if !st.Found && load != nil {
		load(eng)
	}
	rs, err := eng.Replay(p, records, st.StartLSN)
	st.Total, st.Tail = rs.Total, rs.Replayed
	if err != nil {
		return nil, st, fmt.Errorf("ckpt: recover: %w", err)
	}
	return eng, st, nil
}
