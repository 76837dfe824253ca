package wal

import (
	"bytes"
	"testing"
)

// FuzzWALRoundTrip checks the record codec: encode→decode→encode must be
// the identity, every truncation of a record must be rejected, a corrupted
// magic must be rejected, and DecodeAll over a record followed by
// arbitrary junk must stop cleanly at a boundary whose decoded prefix
// re-encodes to exactly the consumed bytes (the crash-recovery contract),
// and the same whether the stream is framed whole or in two chunks.
func FuzzWALRoundTrip(f *testing.F) {
	f.Add(int64(1), []byte("payload"), []byte{})
	f.Add(int64(-7), []byte{}, []byte{0x41, 0x57}) // magic-like junk
	f.Add(int64(1<<40), bytes.Repeat([]byte{0xAA}, 300), []byte{0x57, 0x41, 0xFF})
	f.Fuzz(func(t *testing.T, txid int64, payload, junk []byte) {
		rec := Record{TxID: txid, Payload: payload}
		enc := rec.Encode(nil)
		if len(enc) != EncodedLen(len(payload)) {
			t.Fatalf("encoded %d bytes, EncodedLen says %d", len(enc), EncodedLen(len(payload)))
		}

		dec, n, err := decode(enc)
		if err != nil {
			t.Fatalf("decode of fresh encoding failed: %v", err)
		}
		if n != len(enc) || dec.TxID != txid || !bytes.Equal(dec.Payload, payload) {
			t.Fatalf("round trip mismatch: consumed %d/%d, txid %d/%d", n, len(enc), dec.TxID, txid)
		}
		if re := dec.Encode(nil); !bytes.Equal(re, enc) {
			t.Fatal("encode→decode→encode is not the identity")
		}

		// Every strict prefix is a truncated record and must be rejected.
		cuts := []int{0, 1, recordHeaderLen - 1, len(enc) - 1}
		if len(junk) > 0 {
			cuts = append(cuts, int(junk[0])%len(enc))
		}
		for _, cut := range cuts {
			if cut < 0 || cut >= len(enc) {
				continue
			}
			if _, _, err := decode(enc[:cut]); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", cut, len(enc))
			}
		}

		// A corrupted magic must be rejected.
		bad := append([]byte(nil), enc...)
		bad[0] ^= 0xFF
		if _, _, err := decode(bad); err == nil {
			t.Fatal("corrupted magic accepted")
		}

		// DecodeAll over record+junk: must not panic, must recover at least
		// the intact record, and the decoded prefix must re-encode to the
		// exact consumed bytes.
		stream := append(append([]byte(nil), enc...), junk...)
		recs := DecodeAll(stream)
		if len(recs) == 0 {
			t.Fatal("DecodeAll lost the intact leading record")
		}
		off := 0
		for i, r := range recs {
			if r.LSN != int64(off) {
				t.Fatalf("record %d: LSN %d, want %d", i, r.LSN, off)
			}
			b := r.Encode(nil)
			if off+len(b) > len(stream) || !bytes.Equal(stream[off:off+len(b)], b) {
				t.Fatalf("record %d does not re-encode to its source bytes", i)
			}
			off += len(b)
		}
		if recs[0].TxID != txid || !bytes.Equal(recs[0].Payload, payload) {
			t.Fatal("leading record corrupted by trailing junk")
		}
		checkEverySplit(t, stream)
	})
}
