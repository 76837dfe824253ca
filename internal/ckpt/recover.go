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
	// Found is true when a complete checkpoint record was on the durable
	// log (its page images are durable by protocol order).
	Found bool
	// StartLSN is the found checkpoint's replay cut (0 without one).
	StartLSN int64
	// Total counts the redo records on the stream (control records
	// excluded); a checkpoint-free recovery replays all of them.
	Total int
	// Tail counts the redo records actually replayed.
	Tail int
}

// Recover rebuilds a paged engine from a durable log stream. With a
// checkpoint on the stream, the pager restores onto store (the device's
// page slots) and db.Engine.Replay walks the stream from Record.StartLSN.
// Without one, load rebuilds the pre-log state (bulk-loaded rows never
// hit the WAL) into a fresh memory-backed pager — the device pages are
// not trustworthy before the first complete checkpoint — and the whole
// stream replays. Either way a shard's DECISION and COMMITP records apply;
// an in-doubt PREPARE is presumed aborted.
func Recover(p *sim.Proc, env *sim.Env, store btree.PageStore, poolPages int, records []wal.Record, load func(*db.Engine)) (*db.Engine, Stats, error) {
	var st Stats
	var rec Record
	for i := len(records) - 1; i >= 0; i-- {
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
	if st.Found {
		pg := btree.NewPager(store, btree.Config{PoolPages: poolPages})
		pg.Restore(rec.NextID, rec.Free, rec.Parity)
		eng = db.NewPaged(env, nil, pg)
		for name, root := range rec.Tables {
			eng.OpenPagedTable(name, root)
		}
	} else {
		mem := btree.NewMemStore(store.PageSize(), int64(1)<<32)
		eng = db.NewPaged(env, nil, btree.NewPager(mem, btree.Config{PoolPages: poolPages}))
		if load != nil {
			load(eng)
		}
	}
	rs, err := eng.Replay(p, records, st.StartLSN, nil)
	st.Total, st.Tail = rs.Total, rs.Replayed
	if err != nil {
		return nil, st, fmt.Errorf("ckpt: recover: %w", err)
	}
	return eng, st, nil
}
