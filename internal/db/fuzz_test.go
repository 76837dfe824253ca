package db

import (
	"bytes"
	"testing"

	"xssd/internal/sim"
	"xssd/internal/wal"
)

// replayOne walks one record with payload into a fresh row-map engine. It
// may fail; it must not panic.
func replayOne(payload []byte) {
	New(sim.NewEnv(1), nil).Replay(nil, []wal.Record{{TxID: 1, Payload: payload}}, 0, nil)
}

// FuzzControlRecord fuzzes the 2PC control record codec: arbitrary bytes
// never panic the decoder or the walker, and a payload that decodes
// re-encodes to the same bytes (the codec is canonical).
func FuzzControlRecord(f *testing.F) {
	f.Add(EncodeControl(KindPrepare, 0x123456789a, 3, nil, encodeWrites([]writeOp{{tab: Table{name: "t"}, key: "k", val: []byte("v")}})))
	f.Add(EncodeControl(KindDecision, 1<<48|7, 0, []int{1, 4}, []byte{0, 0}))
	f.Add(EncodeControl(KindCommitP, 9, 2, nil, nil))
	f.Add([]byte{0xFF, 0xFF, 77})
	f.Fuzz(func(t *testing.T, data []byte) {
		replayOne(data)
		c, err := decodeControl(data)
		if err != nil {
			return
		}
		if enc := EncodeControl(c.Kind, c.GID, c.Coord, c.Shards, c.Writes); !bytes.Equal(enc, data) {
			t.Fatalf("accepted payload is not canonical:\n in %x\nout %x", data, enc)
		}
	})
}

// FuzzRedoPayload fuzzes the redo write-set codec the same way: no panic,
// and what decodes re-encodes to the same bytes — so a flags byte other
// than 0 or 1, or bytes past the last op, must not decode.
func FuzzRedoPayload(f *testing.F) {
	f.Add(encodeWrites([]writeOp{
		{tab: Table{name: "warehouse"}, key: "w1", val: []byte("row")},
		{tab: Table{name: "stock"}, key: "s:1:100", delete: true},
	}))
	f.Add(encodeWrites(nil))
	f.Add([]byte{1, 0, 2, 1, 't', 1, 0, 'k', 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		replayOne(data)
		ws, err := decodeWrites(nil, data)
		if err != nil {
			return
		}
		if enc := encodeWrites(ws); !bytes.Equal(enc, data) {
			t.Fatalf("accepted payload is not canonical:\n in %x\nout %x", data, enc)
		}
	})
}
