// Paged chaos: invariant I9 and the Scenario.Paged wiring.
//
// A paged scenario stores the database in B+tree pages behind a buffer
// pool (internal/btree), destaged to a conventional-side LBA range of
// the primary, with a background fuzzy-checkpoint manager
// (internal/ckpt) bounding recovery to the WAL tail. On top of the
// classic invariants the run checks:
//
//	I9  recovering from (last complete checkpoint + WAL tail) is
//	    bit-identical to a full replay of the durable stream — and
//	    replays strictly fewer records once a checkpoint completed.
//
// Classic (non-paged) and sharded runs check I9 too, post mortem:
// the recovered stream replays into a memory-backed paged engine with
// synthetic checkpoints at randomized cuts and a randomized crash
// point. That path spends no virtual time, so existing fingerprints
// are untouched.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"xssd/internal/btree"
	"xssd/internal/ckpt"
	"xssd/internal/db"
	"xssd/internal/sim"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// A paged run's stack; its checkpoint manager runs every 2 ms, so ~15
// checkpoints fit the default 30ms window.
const (
	// pagedSlots is the conventional-side LBA range a paged run reserves:
	// 1024 page ids × 2 shadow slots, one device block per slot.
	pagedSlots = 2048
	// pagedPool is the live engine's buffer-pool cap in pages: well under
	// the loaded tree, so transactions' reads miss and their batched
	// fetches (db.Tx.Fetch) reach the device under the injected faults.
	pagedPool = 16
)

// preCheckpointRecords counts the redo records a checkpoint at startLSN
// absolves recovery from replaying — when it is positive, the tail must
// be strictly shorter than the full stream.
func preCheckpointRecords(records []wal.Record, startLSN int64) int {
	n := 0
	for _, r := range records {
		if r.LSN >= startLSN {
			break
		}
		if !db.IsControlPayload(r.Payload) {
			n++
		}
	}
	return n
}

// livePagedI9 checks I9 on a paged run post mortem: recover a fresh
// engine from the primary's checkpointed page slots (pages, the stack's
// post-mortem reader) plus the durable stream's tail, and compare it
// against a full-stream replay into both a memory-backed paged engine and
// the classic row-map engine. The recovery reads flash through the FTL on
// the device's Env — the run is over and single-threaded, so driving that
// member directly is race-free (same pattern as stack.FlashPrefix).
func livePagedI9(prim *villars.Device, pages btree.PageStore, completed int64, records []wal.Record, load func(*db.Engine), liveFP uint64, liveFPOK bool) []string {
	var out []string

	var (
		recFP    uint64
		st       ckpt.Stats
		rerr     error
		finished bool
	)
	denv := prim.Env()
	denv.Go("chaos-paged-recover", func(p *sim.Proc) {
		eng, stats, err := ckpt.Recover(p, denv, pages, pagedPool, records, load)
		st, rerr = stats, err
		if err == nil {
			recFP = eng.FingerprintIn(p)
		}
		finished = true
	})
	denv.RunUntil(denv.Now() + 200*time.Millisecond)
	if !finished {
		return append(out, "I9: paged recovery did not finish post mortem")
	}
	if rerr != nil {
		return append(out, fmt.Sprintf("I9: paged recovery from device: %v", rerr))
	}

	if completed > 0 && !st.Found {
		out = append(out, fmt.Sprintf("I9: %d checkpoints completed but none found on the durable stream", completed))
	}
	if st.Found && preCheckpointRecords(records, st.StartLSN) > 0 && st.Tail >= st.Total {
		out = append(out, fmt.Sprintf("I9: tail replay %d not strictly below full replay %d despite a covering checkpoint", st.Tail, st.Total))
	}

	oracle := db.NewPaged(sim.NewEnv(1), nil, btree.NewPager(btree.NewMemStore(prim.BlockSize(), 1<<30), btree.Config{PoolPages: pagedPool}))
	load(oracle)
	if err := oracle.Recover(records); err != nil {
		return append(out, fmt.Sprintf("I9: full-stream paged replay: %v", err))
	}
	classic := db.New(sim.NewEnv(1), nil)
	load(classic)
	if err := classic.Recover(records); err != nil {
		return append(out, fmt.Sprintf("I9: full-stream classic replay: %v", err))
	}
	oFP, cFP := oracle.FingerprintIn(nil), classic.Fingerprint()
	if oFP != cFP {
		out = append(out, fmt.Sprintf("I9: paged full replay %016x diverges from classic replay %016x", oFP, cFP))
	}
	if recFP != oFP {
		out = append(out, fmt.Sprintf("I9: checkpoint recovery %016x diverges from full replay %016x (tail %d/%d)", recFP, oFP, st.Tail, st.Total))
	}
	if liveFPOK && recFP != liveFP {
		out = append(out, fmt.Sprintf("I9: checkpoint recovery %016x diverges from live engine %016x", recFP, liveFP))
	}
	return out
}

// syntheticPagedI9 checks I9 against any recovered stream without a live
// paged device: replay it into a memory-backed paged engine in segments
// of a few records, with a fuzzy checkpoint after each (segment lengths
// and the crash record drawn from the seed), crash, recover from (last
// checkpoint + tail), and demand bit-identical state versus the replayed
// engine and a full classic replay. Every replay is db.Engine.Replay, so
// a shard's DECISION and COMMITP records apply on all three. Everything
// runs on nil procs against MemStores — zero virtual time, so callers'
// event schedules and fingerprints are untouched.
func syntheticPagedI9(seed int64, records []wal.Record, load func(*db.Engine)) []string {
	if len(records) == 0 {
		return nil
	}
	fail := func(format string, args ...any) []string {
		return []string{fmt.Sprintf(format, args...)}
	}
	rng := rand.New(rand.NewSource(seed*1000003 + 71))
	cut := 1 + rng.Intn(len(records))

	const pageSize = 1024
	const pool = 48
	store := btree.NewMemStore(pageSize, 1<<30)
	eng := db.NewPaged(sim.NewEnv(seed+13), nil, btree.NewPager(store, btree.Config{PoolPages: pool}))
	load(eng)

	spliced := make([]wal.Record, 0, cut+8)
	ckpts, applied, preTail := 0, 0, 0
	for lo, n := 0, 3+rng.Intn(6); lo < cut; lo, n = lo+n, 3+rng.Intn(6) {
		// The walk re-reads records[:lo] only to index their PREPAREs: a
		// COMMITP in this segment may close one from an earlier segment.
		hi := min(lo+n, cut)
		spliced = append(spliced, records[lo:hi]...)
		st, err := eng.Replay(nil, records[:hi], records[lo].LSN, nil)
		if err != nil {
			return fail("I9: synthetic replay: %v", err)
		}
		applied += st.Replayed
		if hi < lo+n {
			break // the crash lands mid-segment
		}
		ck, err := eng.BeginCheckpoint(nil)
		if err != nil {
			return fail("I9: synthetic checkpoint: %v", err)
		}
		pg := eng.Pager()
		if err := pg.WriteImages(nil, ck.Snap.Images); err != nil {
			return fail("I9: synthetic checkpoint write: %v", err)
		}
		if err := pg.Sync(nil); err != nil {
			return fail("I9: synthetic checkpoint sync: %v", err)
		}
		// The record rides the stream at the snapshot's append frontier,
		// exactly where the live manager's WAL append would put it.
		spliced = append(spliced, wal.Record{LSN: ck.StartLSN, Payload: ckpt.FromCheckpoint(ck).Encode()})
		pg.CommitCheckpoint(ck.Snap)
		ckpts++
		preTail = applied
	}

	recovered, st, err := ckpt.Recover(nil, sim.NewEnv(seed+29), store, pool, spliced, load)
	if err != nil {
		return fail("I9: synthetic recovery: %v", err)
	}
	if ckpts > 0 && !st.Found {
		return fail("I9: %d synthetic checkpoints taken but none found on the stream", ckpts)
	}
	if st.Found && preTail > 0 && st.Tail >= st.Total {
		return fail("I9: synthetic tail replay %d not strictly below full replay %d", st.Tail, st.Total)
	}

	classic := db.New(sim.NewEnv(seed+31), nil)
	load(classic)
	if err := classic.Recover(records[:cut]); err != nil {
		return fail("I9: synthetic classic replay: %v", err)
	}
	var out []string
	recFP, liveFP, cFP := recovered.FingerprintIn(nil), eng.FingerprintIn(nil), classic.Fingerprint()
	if recFP != liveFP {
		out = append(out, fmt.Sprintf("I9: synthetic recovery %016x diverges from replayed paged engine %016x (cut %d/%d, tail %d/%d)", recFP, liveFP, cut, len(records), st.Tail, st.Total))
	}
	if recFP != cFP {
		out = append(out, fmt.Sprintf("I9: synthetic recovery %016x diverges from classic replay %016x (cut %d/%d)", recFP, cFP, cut, len(records)))
	}
	return out
}

// DefaultPagedScenario is DefaultScenario with the paged table store
// switched on — same randomized cluster shape and fault plan, plus the
// checkpoint/recovery machinery and invariant I9.
func DefaultPagedScenario(seed int64) Scenario {
	s := DefaultScenario(seed)
	s.Paged = true
	return s
}
