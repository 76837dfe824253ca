// Cluster recovery and the cross-shard atomicity invariant (I8).
//
// 2PC control records (PREPARE, DECISION, COMMITP; the codec is in
// internal/db) are ordinary WAL entries on the shard that emits them:
// they flow through the same group-commit batches, ring, mirroring and
// destage path as redo records. So each shard recovers from its own
// durable stream through ckpt.Recover, like every engine. What the cluster
// adds is the coordinators' outcomes: a PREPARE with no COMMITP is in
// doubt, and commits iff its coordinator's durable stream holds a DECISION
// for the gid — recovery appends the COMMITP its resolver would have logged.
//
// I8 — no single crash, anywhere, may break cross-shard atomicity — is
// checked post-mortem from the durable streams plus the coordinators'
// live ack lists; see CheckAtomicity.
package shard

import (
	"fmt"
	"maps"
	"slices"

	"xssd/internal/ckpt"
	"xssd/internal/db"
	"xssd/internal/sim"
	"xssd/internal/wal"
)

// View is one shard's durable log stream, parsed and indexed for
// recovery and invariant checking.
type View struct {
	// Shard is the owning shard's id.
	Shard int
	// Records is the full decoded stream in log order.
	Records []wal.Record
	// Prepares indexes the durable PREPARE control record by gid.
	Prepares map[int64]db.Control
	// Decisions indexes the durable DECISION control record by gid
	// (transactions this shard coordinated and committed).
	Decisions map[int64]db.Control
	// CommitPs marks gids whose COMMITP marker is durable here.
	CommitPs map[int64]bool
}

// ParseStream decodes a shard's durable byte stream into a View.
func ParseStream(shardID int, stream []byte) (*View, error) {
	v := &View{
		Shard:     shardID,
		Records:   wal.DecodeAll(stream),
		Prepares:  map[int64]db.Control{},
		Decisions: map[int64]db.Control{},
		CommitPs:  map[int64]bool{},
	}
	cs, err := db.Controls(v.Records)
	if err != nil {
		return nil, fmt.Errorf("shard %d %w", shardID, err)
	}
	for _, c := range cs {
		switch c.Kind {
		case db.KindPrepare:
			v.Prepares[c.GID] = c
		case db.KindDecision:
			v.Decisions[c.GID] = c
		case db.KindCommitP:
			v.CommitPs[c.GID] = true
		}
	}
	return v, nil
}

// viewOf returns shard sid's view; nil means its stream was lost whole.
func viewOf(views []*View, sid int) *View {
	for _, v := range views {
		if v != nil && v.Shard == sid {
			return v
		}
	}
	return nil
}

// decisionFor reports whether gid's coordinator durably decided commit.
// A lost coordinator stream is presumed abort, like any undecided gid.
func decisionFor(views []*View, gid int64, coord int) bool {
	cv := viewOf(views, coord)
	return cv != nil && cv.Decisions[gid].Kind == db.KindDecision
}

// resolve returns v's records and, on a copy, the COMMITP the live
// resolver would have logged (twopc.go) for each in-doubt PREPARE whose
// coordinator durably decided commit, in gid order, at LSNs continuing
// from the end of the last whole record. v.Records is never written.
func resolve(views []*View, v *View) []wal.Record {
	out, lsn := slices.Clip(v.Records), int64(0)
	if n := len(out); n > 0 {
		lsn = out[n-1].LSN + int64(wal.EncodedLen(len(out[n-1].Payload)))
	}
	for _, gid := range slices.Sorted(maps.Keys(v.Prepares)) {
		if c := v.Prepares[gid]; !v.CommitPs[gid] && decisionFor(views, gid, c.Coord) {
			out = append(out, wal.Record{LSN: lsn, TxID: gid, Payload: db.EncodeControl(db.KindCommitP, gid, c.Coord, nil, nil)})
			lsn += int64(wal.EncodedLen(len(out[len(out)-1].Payload)))
		}
	}
	return out
}

// Replay recovers one row-map engine per view through ckpt.Recover, each
// view's records resolved against the coordinators' durable decisions.
// load seeds each fresh engine exactly as the live cluster was seeded
// (same closure as Config.Load). The env only provides clocks for the
// replay engines; no simulated time passes.
func Replay(env *sim.Env, views []*View, load func(eng *db.Engine, shardID int)) ([]*db.Engine, error) {
	engines := make([]*db.Engine, len(views))
	for i, v := range views {
		if v == nil {
			continue
		}
		eng, _, err := ckpt.Recover(nil, env, nil, 0, resolve(views, v), func(e *db.Engine) { load(e, v.Shard) })
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", v.Shard, err)
		}
		engines[i] = eng
	}
	return engines, nil
}

// CheckAtomicity verifies I8 over the cluster's durable streams plus
// each coordinator's live ack list (acked[i] = gids shard i acknowledged
// committed to its client): no participant applied a gid its coordinator
// never durably committed, no durable decision names a participant whose
// prepare is not durable, and no client-visible commit lacks a durable
// decision. Returns one message per violation, deterministically ordered.
func CheckAtomicity(views []*View, acked [][]int64) []string {
	var bad []string
	for _, v := range views {
		if v == nil {
			continue
		}
		// (a) COMMITP implies a durable coordinator decision: a
		// participant must never apply without a durable commit point.
		for _, gid := range slices.Sorted(maps.Keys(v.CommitPs)) {
			prep, ok := v.Prepares[gid]
			if !ok {
				bad = append(bad, fmt.Sprintf("I8: shard %d: COMMITP gid %d without durable PREPARE", v.Shard, gid))
				continue
			}
			if !decisionFor(views, gid, prep.Coord) {
				bad = append(bad, fmt.Sprintf("I8: shard %d applied gid %d but coordinator %d has no durable decision", v.Shard, gid, prep.Coord))
			}
		}
		// (b) a durable decision implies every listed participant's
		// prepare is durable — otherwise the commit could lose writes. A
		// participant whose stream was lost whole has nothing to check.
		for _, gid := range slices.Sorted(maps.Keys(v.Decisions)) {
			for _, sid := range v.Decisions[gid].Shards {
				if pv := viewOf(views, sid); pv != nil {
					if _, ok := pv.Prepares[gid]; !ok {
						bad = append(bad, fmt.Sprintf("I8: decision for gid %d on shard %d, but participant %d has no durable PREPARE", gid, v.Shard, sid))
					}
				}
			}
		}
	}
	// (c) every client-acknowledged commit has a durable decision.
	for i, gids := range acked {
		cv := viewOf(views, i)
		if cv == nil {
			continue
		}
		for _, gid := range gids {
			if _, ok := cv.Decisions[gid]; !ok {
				bad = append(bad, fmt.Sprintf("I8: shard %d acked gid %d to its client without a durable decision", i, gid))
			}
		}
	}
	return bad
}
