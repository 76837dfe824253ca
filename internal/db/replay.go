// The record format replay reads, and the one walker every recovery and
// follower applies records through (DESIGN §14). A control payload starts
// with an op count no transaction carries, which names its kind. A 2PC
// record's codec lives here, beside the walker that applies it:
//
//	[TwoPCOps u16] [kind u8] [gid i64] [coord u16] [nShards u16] [shards u16...] [writes ...]
package db

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"xssd/internal/sim"
	"xssd/internal/wal"
)

// The op counts reserved for control records riding the WAL. A control
// payload has at least one byte after its count (a version or a kind).
const (
	CheckpointOps = 0xFFFE // internal/ckpt's checkpoint record
	TwoPCOps      = 0xFFFF // a 2PC control record
)

// ControlOps returns the reserved op count a control payload starts with,
// CheckpointOps or TwoPCOps, and 0 for a redo payload.
func ControlOps(payload []byte) uint16 {
	if len(payload) < 3 {
		return 0
	}
	if ops := binary.LittleEndian.Uint16(payload); ops >= CheckpointOps {
		return ops
	}
	return 0
}

// IsControlPayload reports whether a WAL record payload is a control
// record rather than a redo write set.
func IsControlPayload(payload []byte) bool { return ControlOps(payload) != 0 }

// 2PC control record kinds.
const (
	KindPrepare  = byte(1) // a participant's yes-vote, carrying the write set it applies on commit
	KindDecision = byte(2) // the coordinator's commit point, carrying its own write set and the participants
	KindCommitP  = byte(3) // the participant applied gid's writes; carries none
)

// Control is one decoded 2PC control record: its kind, the global
// transaction id, the coordinator's shard id, the participant shard ids
// (a DECISION's) and the embedded redo payload.
type Control struct {
	Kind   byte
	GID    int64
	Coord  int
	Shards []int
	Writes []byte
}

// EncodeControl renders a 2PC control record payload.
func EncodeControl(kind byte, gid int64, coord int, shards []int, writes []byte) []byte {
	buf := make([]byte, 0, 2+1+8+2+2+2*len(shards)+len(writes))
	buf = binary.LittleEndian.AppendUint16(buf, TwoPCOps)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(gid))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(coord))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(shards)))
	for _, s := range shards {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(s))
	}
	return append(buf, writes...)
}

// decodeControl parses a 2PC control record payload. A malformed one is
// an error: it was durable, so truncation means corruption, not a torn
// write.
func decodeControl(payload []byte) (Control, error) {
	var c Control
	if ControlOps(payload) != TwoPCOps {
		return c, fmt.Errorf("db: not a 2PC record")
	}
	b := payload[2:]
	if len(b) < 1+8+2+2 {
		return c, fmt.Errorf("db: truncated 2PC record header (%d bytes)", len(payload))
	}
	c.Kind = b[0]
	c.GID = int64(binary.LittleEndian.Uint64(b[1:9]))
	c.Coord = int(binary.LittleEndian.Uint16(b[9:11]))
	n := int(binary.LittleEndian.Uint16(b[11:13]))
	b = b[13:]
	if len(b) < 2*n {
		return c, fmt.Errorf("db: 2PC record gid %d: truncated shard list", c.GID)
	}
	for i := 0; i < n; i++ {
		c.Shards = append(c.Shards, int(binary.LittleEndian.Uint16(b[2*i:])))
	}
	c.Writes = b[2*n:]
	switch c.Kind {
	case KindPrepare, KindDecision, KindCommitP:
	default:
		return c, fmt.Errorf("db: 2PC record gid %d: unknown kind %d", c.GID, c.Kind)
	}
	return c, nil
}

// Controls decodes every 2PC control record of a stream, in log order.
func Controls(records []wal.Record) ([]Control, error) {
	var out []Control
	for _, r := range records {
		if ControlOps(r.Payload) != TwoPCOps {
			continue
		}
		c, err := decodeControl(r.Payload)
		if err != nil {
			return nil, fmt.Errorf("lsn %d: %w", r.LSN, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// ReplayStats counts the redo records one replay walked: every one on the
// stream, and the ones at or past the cut, which it applied.
type ReplayStats struct {
	Total, Replayed int
}

// Replay walks a decoded log stream into the engine on process p (a paged
// engine may fetch pages), applying the records at or past the cut from
// (0: all of them). A redo record applies its write set, a DECISION the
// coordinator's, and a COMMITP its PREPARE's, found before the cut or
// after it; rows take the TxID (a 2PC record's gid) and pages the
// record's end LSN, the stamps the live engine used. A PREPARE with no
// COMMITP is in doubt: after the walk it applies, in gid order, iff
// decided(gid, coordinator) — a nil decided presumes abort. That is safe
// late, because its rows stay pinned until the decision. A malformed
// record, or a COMMITP with no PREPARE, is an error.
func (e *Engine) Replay(p *sim.Proc, records []wal.Record, from int64, decided func(gid int64, coord int) bool) (ReplayStats, error) {
	e.build(p)
	w := replayer{e: e, p: p, from: from}
	for _, r := range records {
		if err := w.walk(r); err != nil {
			return w.st, err
		}
	}
	if decided == nil {
		return w.st, nil
	}
	for _, gid := range slices.Sorted(maps.Keys(w.open)) {
		if c := w.open[gid]; decided(gid, c.Coord) {
			if err := e.applyPayload(p, c.Writes, gid, e.lastLSN); err != nil {
				return w.st, fmt.Errorf("db: in-doubt gid %d: %w", gid, err)
			}
		}
	}
	return w.st, nil
}

// Recover replays a decoded log stream in order (crash restart): the
// whole stream, every in-doubt PREPARE presumed aborted.
func (e *Engine) Recover(records []wal.Record) error {
	_, err := e.Replay(nil, records, 0, nil)
	return err
}

// replayer is one walk over one stream; a Follower keeps one across its
// chunks. open holds the PREPAREs no COMMITP has closed yet, by gid.
type replayer struct {
	e    *Engine
	p    *sim.Proc
	from int64
	open map[int64]Control
	st   ReplayStats
}

// walk is the record-kind switch, the one place that tells record kinds
// apart.
func (w *replayer) walk(r wal.Record) error {
	e := w.e
	end := r.LSN + int64(wal.EncodedLen(len(r.Payload)))
	e.lastLSN = max(e.lastLSN, end)
	apply := r.LSN >= w.from
	payload, ver := r.Payload, r.TxID
	switch ControlOps(r.Payload) {
	case CheckpointOps:
		return nil
	case TwoPCOps:
		c, err := decodeControl(r.Payload)
		if err != nil {
			return fmt.Errorf("db: replay lsn %d: %w", r.LSN, err)
		}
		switch c.Kind {
		case KindPrepare:
			if w.open == nil {
				w.open = map[int64]Control{}
			}
			w.open[c.GID] = c
			return nil
		case KindDecision:
			payload = c.Writes
		case KindCommitP:
			prep, ok := w.open[c.GID]
			if !ok {
				return fmt.Errorf("db: replay lsn %d: COMMITP gid %d without durable PREPARE", r.LSN, c.GID)
			}
			delete(w.open, c.GID)
			payload = prep.Writes
		}
		ver = c.GID
	default:
		w.st.Total++
		if apply {
			w.st.Replayed++
		}
	}
	if !apply {
		return nil
	}
	if err := e.applyPayload(w.p, payload, ver, end); err != nil {
		return fmt.Errorf("db: replay lsn %d: %w", r.LSN, err)
	}
	return nil
}

// applyPayload installs an encoded write set as one committed
// transaction, stamping rows with ver and pages with lsn.
func (e *Engine) applyPayload(p *sim.Proc, payload []byte, ver, lsn int64) error {
	ws, err := decodeWrites(e.decBuf[:0], payload)
	if err == nil {
		e.decBuf = ws
		err = e.apply(p, ws, ver, lsn)
	}
	if err != nil {
		return fmt.Errorf("apply ver %d: %w", ver, err)
	}
	e.commits++
	return nil
}
