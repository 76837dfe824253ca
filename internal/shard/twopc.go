// The cross-shard transaction API and the two-phase commit protocol.
//
// A Tx is homed on the shard that begins it: local rows go straight into
// an ordinary db.Tx, remote reads are RPCs into a participant-side
// transaction on the owning shard (read-your-writes included), and
// remote writes are one-way buffered ops. A purely local Tx commits on
// the plain single-shard path — byte for byte the same events as a
// cluster of one.
//
// Cross-shard commit (presumed abort):
//
//	coordinator                      participant
//	local Prepare (pin rows)
//	PREPARE(gid, nOps) ──────────▶   count check, validate, pin,
//	                                 log PREPARE{writes}, wait durable
//	           ◀────────── vote yes/no
//	all yes: log DECISION{participants, local writes}, wait durable
//	  = the commit point; then apply local writes
//	COMMIT(gid) ─────────────────▶   apply pinned writes,
//	                                 log COMMITP (no wait)
//	           ◀────────── ack (bounded wait)
//
// Any no-vote, timeout, or a coordinator log that dies before the
// decision is durable aborts everywhere; a participant left in doubt
// (lost decision) re-asks the coordinator's outcome table from a
// resolver process until the answer arrives. Only the durable DECISION
// record commits a gid — recovery treats everything else as abort.
package shard

import (
	"fmt"
	"sort"
	"strings"

	"xssd/internal/db"
	"xssd/internal/sim"
	"xssd/internal/wal"
)

// Tx is one (possibly distributed) transaction homed on a shard. It holds
// the home engine's transaction by value, so beginning one into a Tx the
// caller owns (BeginIn) allocates neither.
type Tx struct {
	home  *Shard
	local db.Tx
	gid   int64
	parts map[int]*partRef
	order []int // participant ids, first-touch order until Commit sorts it
	done  bool
}

// partRef is the coordinator's view of one participant.
type partRef struct {
	writes int // ops sent; the participant must have received exactly this many
}

// BeginIn is Begin into t, a Tx the caller owns that is new or finished,
// and returns t: a terminal running one transaction at a time begins each
// in the same Tx and allocates none for it.
func (s *Shard) BeginIn(t *Tx, p *sim.Proc) *Tx {
	*t = Tx{home: s}
	s.stk.Engine.BeginIn(&t.local, p)
	return t
}

// ID returns the home engine's local transaction id (unique per home
// engine; usable as a key disambiguator for home-owned rows).
func (t *Tx) ID() int64 { return t.local.ID() }

// part registers sid as a participant (allocating the gid on first
// remote touch) and returns its ref.
func (t *Tx) part(sid int) *partRef {
	if t.gid == 0 {
		t.home.nextSeq++
		t.gid = int64(t.home.id+1)<<48 | t.home.nextSeq
	}
	pr := t.parts[sid]
	if pr == nil {
		if t.parts == nil {
			t.parts = map[int]*partRef{}
		}
		pr = &partRef{}
		t.parts[sid] = pr
		t.order = append(t.order, sid)
	}
	return pr
}

// getByName is a read that arrived by table name: the handle is resolved
// here, at the RPC boundary, and a table nobody has written yet holds no
// rows (a read must not create it).
func getByName(eng *db.Engine, tx *db.Tx, table, key string) ([]byte, bool) {
	tab, ok := eng.LookupTable(table)
	if !ok {
		return nil, false
	}
	return tx.GetIn(tab, key)
}

// GetW reads a row owned by the given warehouse, routing to its shard. tab
// is the table's handle on the home engine. Local reads hit the home
// engine directly; remote reads carry the table's name to the owning shard
// and run inside its participant transaction (observing this
// transaction's own earlier remote writes) and register in its read set,
// so prepare validates them — OCC serializability spans shards. A peer
// that cannot be reached returns ErrUnavailable. GetW keeps no reference
// to key once it returns, as db.Tx.GetIn keeps none: key may be a view of
// a buffer the caller reuses.
//
//xssd:hotpath
func (t *Tx) GetW(p *sim.Proc, warehouse int, tab db.Table, key string) ([]byte, bool, error) {
	if sid := t.home.c.ShardOf(warehouse); sid != t.home.id {
		return t.remoteGet(p, sid, tab.Name(), key)
	}
	v, ok := t.local.GetIn(tab, key)
	return v, ok, nil
}

// WantW names a row the transaction is about to touch, for the next Fetch
// to read in one batch (db.Tx.Want). A row the home shard owns goes to
// the local transaction. A remote one is dropped: naming it must not cost
// an RPC, and the remote read that follows is one round trip anyway.
//
//xssd:hotpath
func (t *Tx) WantW(warehouse int, tab db.Table, key string) {
	if t.home.c.ShardOf(warehouse) == t.home.id {
		t.local.Want(tab, key)
	}
}

// Fetch reads the home rows WantW named since the last Fetch
// (db.Tx.Fetch).
//
//xssd:hotpath
func (t *Tx) Fetch() { t.local.Fetch() }

// remoteGet is GetW's remote arm: a read RPC into shard sid.
func (t *Tx) remoteGet(p *sim.Proc, sid int, table, key string) ([]byte, bool, error) {
	t.part(sid)
	gid, coord := t.gid, t.home.id
	// The handler may run after this call has returned: a request that
	// outlives rpcTimeout still reaches the peer, and registers the read
	// there, once the caller has moved on and rewritten a scratch key.
	key = strings.Clone(key)
	var val []byte
	var ok bool
	reached := t.home.rpc(p, t.home.c.shards[sid], func(dst *Shard, reply func(mut func())) {
		pt := dst.partyFor(gid, coord)
		v, o := getByName(dst.stk.Engine, pt.tx, table, key)
		// Copy before crossing members: the engine's row buffer belongs
		// to dst and a later write there may replace it mid-flight.
		v = append([]byte(nil), v...)
		reply(func() { val, ok = v, o })
	})
	if !reached {
		return nil, false, ErrUnavailable
	}
	return val, ok, nil
}

// PutW buffers a row write routed by warehouse, taking ownership of val;
// tab is the table's handle on the home engine. Remote writes are one-way
// messages; a lost one is caught at prepare by the op-count check, so it
// aborts the transaction rather than committing a hole. PutW and DeleteW
// borrow key, as GetW does: key may be a view of a buffer the caller
// reuses.
//
//xssd:hotpath
func (t *Tx) PutW(warehouse int, tab db.Table, key string, val []byte) {
	if sid := t.home.c.ShardOf(warehouse); sid != t.home.id {
		t.remoteWrite(sid, tab.Name(), key, val, false)
		return
	}
	t.local.PutOwnedIn(tab, key, val)
}

// DeleteW buffers a row deletion routed by warehouse.
//
//xssd:hotpath
func (t *Tx) DeleteW(warehouse int, tab db.Table, key string) {
	if sid := t.home.c.ShardOf(warehouse); sid != t.home.id {
		t.remoteWrite(sid, tab.Name(), key, nil, true)
		return
	}
	t.local.DeleteIn(tab, key)
}

// remoteWrite is PutW's and DeleteW's remote arm: one buffered op, sent to
// shard sid's participant transaction by name.
func (t *Tx) remoteWrite(sid int, table, key string, val []byte, del bool) {
	t.part(sid).writes++
	gid, coord := t.gid, t.home.id
	// The op runs on the peer after this call has returned, by when the
	// caller may have rewritten a scratch key.
	key = strings.Clone(key)
	t.home.post(t.home.c.shards[sid], func(dst *Shard) {
		pt := dst.partyFor(gid, coord)
		pt.writes++
		if del {
			pt.tx.DeleteIn(dst.stk.Engine.Table(table), key)
		} else {
			pt.tx.PutOwnedIn(dst.stk.Engine.Table(table), key, val)
		}
	})
}

// Abort discards the transaction everywhere. Participant notices are
// one-way and best-effort: a participant that never hears it holds no
// pins (it never prepared), and a prepared one resolves through the
// coordinator's outcome table.
func (t *Tx) Abort() {
	if !t.done {
		t.done = true
		t.abort(nil)
	}
}

// abort is the one abort path, Abort's and a failed Commit's (which has
// already set done): drop the local transaction, record the outcome, and
// notify every participant. It returns err for Commit to pass on.
func (t *Tx) abort(err error) error {
	t.local.Abort()
	if len(t.parts) == 0 {
		return err
	}
	t.home.outcomes[t.gid] = false
	t.home.mAborts2PC.Inc()
	for _, sid := range t.order {
		gid := t.gid
		t.home.post(t.home.c.shards[sid], func(dst *Shard) { dst.finish(gid, false) })
	}
	return err
}

// Commit finishes the transaction. With no remote participants it is
// exactly the single-shard commit (validate, apply, group-commit
// durability wait). Otherwise it runs the protocol above; the error
// distinguishes OCC conflicts (db.ErrConflict — retry) from unreachable
// peers and dead logs (ErrUnavailable — give up).
func (t *Tx) Commit(p *sim.Proc) error {
	if t.done {
		return db.ErrTxDone
	}
	t.done = true
	if len(t.parts) == 0 {
		return t.local.Commit(p)
	}
	home := t.home
	start := p.Now()
	sort.Ints(t.order) // canonical participant order: the prepare fan-out schedule
	// Phase 0: pin the home rows. Failing here is the cheap abort.
	if err := t.local.Prepare(); err != nil {
		return t.abort(err)
	}
	// Phase 1: prepare every participant in shard order.
	for _, sid := range t.order {
		gid, coord, nw := t.gid, home.id, t.parts[sid].writes
		var vote bool
		reached := home.rpc(p, home.c.shards[sid], func(dst *Shard, reply func(mut func())) {
			dst.startPrepare(gid, coord, nw, func(v bool) { reply(func() { vote = v }) })
		})
		if !reached {
			return t.abort(ErrUnavailable)
		}
		if !vote {
			return t.abort(db.ErrConflict)
		}
	}
	home.mPrepareLat.Since(start)
	if home.hookBeforeDecision != nil {
		home.hookBeforeDecision()
	}
	// The commit point: the decision record, durable on the coordinator's
	// own WAL. Everything before it aborts cleanly; everything after it
	// must (and can) go forward.
	payload := db.EncodeControl(db.KindDecision, t.gid, home.id, t.order, t.local.EncodedWrites())
	lsn := home.stk.Log.Append(wal.Record{TxID: t.gid, Payload: payload})
	if !home.stk.Log.WaitDurableOrDead(p, lsn) {
		// The coordinator's device died first: the decision never became
		// durable, so recovery will presume abort — abort live too.
		return t.abort(ErrUnavailable)
	}
	home.outcomes[t.gid] = true
	t.local.CommitPrepared(t.gid)
	home.acked = append(home.acked, t.gid)
	home.mCommits2PC.Inc()
	// Phase 2: distribute the decision. Bounded waits; a participant that
	// misses it resolves through its own resolver process.
	for _, sid := range t.order {
		gid := t.gid
		home.rpc(p, home.c.shards[sid], func(dst *Shard, reply func(mut func())) {
			dst.finish(gid, true)
			reply(nil)
		})
	}
	home.mCommitLat.Since(start)
	return nil
}

// partyFor returns (creating on first touch) the participant-side state
// of gid. Runs on s's Env.
func (s *Shard) partyFor(gid int64, coord int) *party {
	pt := s.remote[gid]
	if pt == nil {
		pt = &party{tx: s.stk.Engine.Begin(), coord: coord}
		s.remote[gid] = pt
	}
	return pt
}

// startPrepare handles a PREPARE request in event context. Duplicate
// deliveries (a coordinator resend) are single-flighted: an already-voted
// party answers its recorded vote without re-logging, and a duplicate
// arriving while the first delivery's durability wait is still in flight
// just joins the waiter list — one PREPARE record per gid, ever.
func (s *Shard) startPrepare(gid int64, coord, expectWrites int, vote func(bool)) {
	pt := s.partyFor(gid, coord)
	if pt.prepared {
		vote(pt.vote)
		return
	}
	pt.waiters = append(pt.waiters, vote)
	if pt.preparing {
		return
	}
	pt.preparing = true
	s.env.Go(fmt.Sprintf("2pc-prepare-%d", gid), func(p *sim.Proc) {
		v := s.doPrepare(p, pt, gid, coord, expectWrites)
		ws := pt.waiters
		pt.waiters = nil
		for _, w := range ws {
			w(v)
		}
	})
}

// doPrepare is the participant's phase-1 work: check that every remote
// write arrived, validate and pin, persist the PREPARE record (with the
// write set — recovery replays it if the decision commits), and vote.
// Single-flighted by startPrepare.
func (s *Shard) doPrepare(p *sim.Proc, pt *party, gid int64, coord, expectWrites int) bool {
	s.mPrepares.Inc()
	v := false
	if pt.writes != expectWrites {
		// A dropped or duplicated remote write: voting yes would commit a
		// hole. The count check turns a lossy conduit into an abort.
		pt.tx.Abort()
	} else if pt.tx.Prepare() == nil {
		rec := db.EncodeControl(db.KindPrepare, gid, coord, nil, pt.tx.EncodedWrites())
		lsn := s.stk.Log.Append(wal.Record{TxID: gid, Payload: rec})
		if s.stk.Log.WaitDurableOrDead(p, lsn) {
			v = true
		} else {
			pt.tx.Abort() // our device died: the prepare never persisted
		}
	}
	pt.prepared, pt.vote = true, v
	if v {
		s.env.Go(fmt.Sprintf("2pc-resolve-%d", gid), s.resolver(gid, coord))
	}
	return v
}

// resolver is the termination protocol: a prepared participant that has
// not heard a decision asks the coordinator's outcome table until the
// answer arrives. The coordinator's host side records every outcome
// before releasing the transaction, and simulation members never die
// (only devices do), so the loop always terminates once the decision
// exists; until then — coordinator still mid-protocol — it keeps waiting
// rather than guessing.
func (s *Shard) resolver(gid int64, coord int) func(*sim.Proc) {
	return func(p *sim.Proc) {
		for {
			p.Sleep(2 * rpcTimeout)
			if s.remote[gid] == nil {
				return // decision arrived while we slept
			}
			var commit, known bool
			reached := s.rpc(p, s.c.shards[coord], func(dst *Shard, reply func(mut func())) {
				o, k := dst.outcomes[gid]
				reply(func() { commit, known = o, k })
			})
			if !reached || !known {
				continue
			}
			s.mResolves.Inc()
			s.finish(gid, commit)
			return
		}
	}
}

// finish applies a decision to participant state: commit applies the
// pinned writes and logs the COMMITP marker (no durability wait — the
// coordinator's durable DECISION already covers it); abort just drops
// everything. Idempotent: the first delivery wins, later ones no-op.
func (s *Shard) finish(gid int64, commit bool) {
	pt, ok := s.remote[gid]
	if !ok {
		return
	}
	delete(s.remote, gid)
	if commit && pt.prepared && pt.vote {
		pt.tx.CommitPrepared(gid)
		s.stk.Log.Append(wal.Record{TxID: gid, Payload: db.EncodeControl(db.KindCommitP, gid, pt.coord, nil, nil)})
		s.mCommits2PC.Inc()
	} else {
		pt.tx.Abort()
		if pt.prepared && pt.vote {
			s.mAborts2PC.Inc()
		}
	}
}
