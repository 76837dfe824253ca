// 2PC control records. Prepare, decision, and commit-point records are
// ordinary WAL entries on the shard that emits them — they flow through
// the same group-commit batches, the same fast-side ring, the same
// mirroring, and the same destage path as redo records, which is exactly
// why recovery and the chaos invariants extend to the cluster for free.
//
// A control payload is distinguished from a redo payload by its first two
// bytes: redo payloads start with their op count (u16), and a control
// record starts with db.TwoPCOps, a count no transaction carries.
//
//	[db.TwoPCOps u16] [kind u8] [gid i64] [coord u16] [nShards u16] [shards u16...] [writes ...]
//
// kindPrepare embeds the participant's own write set (the redo bytes it
// will apply on commit); kindDecision embeds the coordinator's local
// write set and lists the participants; kindCommitP embeds nothing — it
// marks "this participant applied gid", resolving the in-doubt window
// without consulting the coordinator.
package shard

import (
	"encoding/binary"
	"fmt"

	"xssd/internal/db"
)

// Control record kinds.
const (
	// kindPrepare: participant voted yes and persisted its write set.
	kindPrepare = byte(1)
	// kindDecision: the coordinator's commit point for gid.
	kindDecision = byte(2)
	// kindCommitP: this participant applied gid's writes.
	kindCommitP = byte(3)
)

// Control is one decoded 2PC control record.
type Control struct {
	// Kind is kindPrepare, kindDecision, or kindCommitP.
	Kind byte
	// GID is the distributed transaction's global id.
	GID int64
	// Coord is the coordinator's shard id.
	Coord int
	// Shards lists the participant shard ids (decision records only).
	Shards []int
	// Writes is the embedded redo payload (prepare: the participant's
	// write set; decision: the coordinator's local write set).
	Writes []byte
}

// encodeControl renders a control record payload.
func encodeControl(kind byte, gid int64, coord int, shards []int, writes []byte) []byte {
	buf := make([]byte, 0, 2+1+8+2+2+2*len(shards)+len(writes))
	buf = binary.LittleEndian.AppendUint16(buf, db.TwoPCOps)
	buf = append(buf, kind)
	var g [8]byte
	binary.LittleEndian.PutUint64(g[:], uint64(gid))
	buf = append(buf, g[:]...)
	var u [2]byte
	binary.LittleEndian.PutUint16(u[:], uint16(coord))
	buf = append(buf, u[:]...)
	binary.LittleEndian.PutUint16(u[:], uint16(len(shards)))
	buf = append(buf, u[:]...)
	for _, s := range shards {
		binary.LittleEndian.PutUint16(u[:], uint16(s))
		buf = append(buf, u[:]...)
	}
	return append(buf, writes...)
}

// IsControl reports whether a WAL record payload is a 2PC control record.
func IsControl(payload []byte) bool { return db.ControlOps(payload) == db.TwoPCOps }

// DecodeControl parses a control record payload. Callers should gate on
// IsControl first; a malformed control payload is an error (it was
// durable, so truncation means corruption, not a torn write).
func DecodeControl(payload []byte) (Control, error) {
	var c Control
	if !IsControl(payload) {
		return c, fmt.Errorf("shard: not a control record")
	}
	b := payload[2:]
	if len(b) < 1+8+2+2 {
		return c, fmt.Errorf("shard: truncated control header (%d bytes)", len(payload))
	}
	c.Kind = b[0]
	c.GID = int64(binary.LittleEndian.Uint64(b[1:9]))
	c.Coord = int(binary.LittleEndian.Uint16(b[9:11]))
	n := int(binary.LittleEndian.Uint16(b[11:13]))
	b = b[13:]
	if len(b) < 2*n {
		return c, fmt.Errorf("shard: control record gid %d: truncated shard list", c.GID)
	}
	for i := 0; i < n; i++ {
		c.Shards = append(c.Shards, int(binary.LittleEndian.Uint16(b[2*i:])))
	}
	c.Writes = b[2*n:]
	switch c.Kind {
	case kindPrepare, kindDecision, kindCommitP:
	default:
		return c, fmt.Errorf("shard: control record gid %d: unknown kind %d", c.GID, c.Kind)
	}
	return c, nil
}
