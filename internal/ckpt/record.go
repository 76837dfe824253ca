// Package ckpt implements fuzzy checkpoints for the paged database
// engine. A checkpoint manager process periodically captures a zero-time
// snapshot of the dirty page set under the engine's commit lock, writes
// the images to their shadow slots concurrently with new commits (the
// fuzzy part), makes them durable, and then appends a checkpoint record
// to the WAL. Recovery finds the last record whose images are fully
// durable — by construction, any checkpoint record on the durable log —
// restores the pager from it, and replays only the WAL tail past the
// record's start LSN instead of the whole log.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"xssd/internal/db"
)

const recordVersion = 1

// ErrBadRecord wraps every checkpoint-record decode rejection.
var ErrBadRecord = errors.New("ckpt: bad checkpoint record")

// Record is the decoded form of a checkpoint record payload: everything
// recovery needs to restore the pager and cut the replay tail. Page
// images are not in the record — they live in their shadow slots, made
// durable before the record was appended.
type Record struct {
	StartLSN int64    // WAL append frontier at the snapshot instant
	NextID   uint64   // pager id-space high-water mark
	Free     []uint64 // free page ids, sorted
	Parity   []uint8  // committed slot parity per page id (len == NextID)
	Tables   map[string]uint64
}

// IsCheckpointPayload reports whether a WAL record payload is a
// checkpoint record.
func IsCheckpointPayload(payload []byte) bool { return db.ControlOps(payload) == db.CheckpointOps }

// Encode serializes the record:
//
//	[db.CheckpointOps u16][version u8][startLSN i64][nextID u64]
//	[nTables u32] then per table (sorted): [nameLen u16][name][root u64]
//	[nFree u32][free u64...]
//	[parity bitmap, ceil(NextID/8) bytes]
//	[crc32 IEEE over everything above]
func (r Record) Encode() []byte {
	names := make([]string, 0, len(r.Tables))
	for n := range r.Tables {
		names = append(names, n)
	}
	sort.Strings(names)

	buf := make([]byte, 0, 64+len(r.Free)*8+int(r.NextID)/8)
	le := binary.LittleEndian
	buf = le.AppendUint16(buf, db.CheckpointOps)
	buf = append(buf, recordVersion)
	buf = le.AppendUint64(buf, uint64(r.StartLSN))
	buf = le.AppendUint64(buf, r.NextID)
	buf = le.AppendUint32(buf, uint32(len(names)))
	for _, n := range names {
		buf = le.AppendUint16(buf, uint16(len(n)))
		buf = append(buf, n...)
		buf = le.AppendUint64(buf, r.Tables[n])
	}
	buf = le.AppendUint32(buf, uint32(len(r.Free)))
	for _, id := range r.Free {
		buf = le.AppendUint64(buf, id)
	}
	bitmap := make([]byte, (int(r.NextID)+7)/8)
	for id, par := range r.Parity {
		if par != 0 {
			bitmap[id/8] |= 1 << (id % 8)
		}
	}
	buf = append(buf, bitmap...)
	buf = le.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// Decode parses and validates a checkpoint record payload.
func Decode(payload []byte) (Record, error) {
	le := binary.LittleEndian
	if len(payload) < 31 { // marker+version+startLSN+nextID+counts+crc
		return Record{}, fmt.Errorf("%w: %d bytes", ErrBadRecord, len(payload))
	}
	if le.Uint16(payload[0:2]) != db.CheckpointOps {
		return Record{}, fmt.Errorf("%w: marker %#x", ErrBadRecord, le.Uint16(payload[0:2]))
	}
	if payload[2] != recordVersion {
		return Record{}, fmt.Errorf("%w: version %d", ErrBadRecord, payload[2])
	}
	body, tail := payload[:len(payload)-4], payload[len(payload)-4:]
	if got := le.Uint32(tail); got != crc32.ChecksumIEEE(body) {
		return Record{}, fmt.Errorf("%w: crc %#x", ErrBadRecord, got)
	}
	r := Record{
		StartLSN: int64(le.Uint64(payload[3:11])),
		NextID:   le.Uint64(payload[11:19]),
		Tables:   map[string]uint64{},
	}
	off := 19
	need := func(n int) bool { return off+n <= len(body) }
	if !need(4) {
		return Record{}, fmt.Errorf("%w: truncated table count", ErrBadRecord)
	}
	nTables := int(le.Uint32(body[off:]))
	off += 4
	prev := ""
	for i := 0; i < nTables; i++ {
		if !need(2) {
			return Record{}, fmt.Errorf("%w: truncated table %d", ErrBadRecord, i)
		}
		nl := int(le.Uint16(body[off:]))
		off += 2
		if !need(nl + 8) {
			return Record{}, fmt.Errorf("%w: truncated table %d", ErrBadRecord, i)
		}
		name := string(body[off : off+nl])
		off += nl
		root := le.Uint64(body[off:])
		off += 8
		if i > 0 && name <= prev {
			return Record{}, fmt.Errorf("%w: table names out of order", ErrBadRecord)
		}
		if root >= r.NextID {
			return Record{}, fmt.Errorf("%w: table %q root %d beyond id space %d", ErrBadRecord, name, root, r.NextID)
		}
		r.Tables[name] = root
		prev = name
	}
	if !need(4) {
		return Record{}, fmt.Errorf("%w: truncated free count", ErrBadRecord)
	}
	nFree := int(le.Uint32(body[off:]))
	off += 4
	if !need(nFree * 8) {
		return Record{}, fmt.Errorf("%w: truncated free list", ErrBadRecord)
	}
	r.Free = make([]uint64, 0, nFree)
	var prevID uint64
	for i := 0; i < nFree; i++ {
		id := le.Uint64(body[off:])
		off += 8
		if id >= r.NextID {
			return Record{}, fmt.Errorf("%w: free id %d beyond id space %d", ErrBadRecord, id, r.NextID)
		}
		if i > 0 && id <= prevID {
			return Record{}, fmt.Errorf("%w: free list out of order", ErrBadRecord)
		}
		r.Free = append(r.Free, id)
		prevID = id
	}
	bm := (int(r.NextID) + 7) / 8
	if len(body)-off != bm {
		return Record{}, fmt.Errorf("%w: parity bitmap %d bytes, want %d", ErrBadRecord, len(body)-off, bm)
	}
	r.Parity = make([]uint8, r.NextID)
	for id := range r.Parity {
		if body[off+id/8]&(1<<(id%8)) != 0 {
			r.Parity[id] = 1
		}
	}
	return r, nil
}

// FromCheckpoint builds the record for a captured engine checkpoint.
func FromCheckpoint(ck db.Checkpoint) Record {
	return Record{
		StartLSN: ck.StartLSN,
		NextID:   ck.Snap.NextID,
		Free:     ck.Snap.Free,
		Parity:   ck.Snap.Parity,
		Tables:   ck.Tables,
	}
}
