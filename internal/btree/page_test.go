package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"
)

// sampleLeaf is a three-cell leaf whose last insert was "beta", at index 1.
func sampleLeaf() *node {
	n := &node{id: 9, kind: kindLeaf, lsn: 4242, hint: 2}
	for _, c := range []cell{
		{"alpha", 3, []byte("one"), false},
		{"beta", 7, nil, true},
		{"gamma", 11, bytes.Repeat([]byte{0x5A}, 40), false},
	} {
		n.cells = append(n.cells, c)
		n.size += c.size()
	}
	return n
}

func sampleBranch() *node {
	n := &node{id: 4, kind: kindBranch, lsn: 100, children: []uint64{1}, size: branchBaseSize}
	for i, k := range []string{"m", "t"} {
		n.keys = append(n.keys, k)
		n.children = append(n.children, uint64(i+2))
		n.size += branchCellSize(k)
	}
	return n
}

func nodesEqual(a, b *node) bool {
	if a.id != b.id || a.kind != b.kind || a.lsn != b.lsn || a.size != b.size || a.hint != b.hint {
		return false
	}
	return slices.Equal(a.keys, b.keys) && slices.Equal(a.children, b.children) &&
		slices.EqualFunc(a.cells, b.cells, func(x, y cell) bool {
			return x.key == y.key && x.ver == y.ver && bytes.Equal(x.val, y.val) && x.tomb == y.tomb
		})
}

func TestPageRoundTrip(t *testing.T) {
	for _, n := range []*node{sampleLeaf(), sampleBranch(), {id: 0, kind: kindLeaf}} {
		buf, err := encodeNode(n, 512)
		if err != nil {
			t.Fatalf("encode node %d: %v", n.id, err)
		}
		if len(buf) != 512 {
			t.Fatalf("encoded %d bytes", len(buf))
		}
		got, err := decodeNode(buf)
		if err != nil {
			t.Fatalf("decode node %d: %v", n.id, err)
		}
		if !nodesEqual(n, got) {
			t.Fatalf("round trip mismatch: %+v vs %+v", n, got)
		}
	}
}

func TestPageEncodeDeterministic(t *testing.T) {
	a, err := encodeNode(sampleLeaf(), 512)
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeNode(sampleLeaf(), 512)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same logical content produced different page bytes")
	}
}

func TestPageRejectsOversize(t *testing.T) {
	n := sampleLeaf()
	if _, err := encodeNode(n, headerLen+n.size-1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize node accepted: %v", err)
	}
}

// TestPageRejectsCorruption flips every byte of the meaningful prefix and
// expects the decoder to reject each mutation — nothing inside the CRC'd
// region may change silently.
func TestPageRejectsCorruption(t *testing.T) {
	n := sampleLeaf()
	buf, err := encodeNode(n, 256)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < headerLen+n.size; off++ {
		mut := append([]byte(nil), buf...)
		mut[off] ^= 0xFF
		if _, err := decodeNode(mut); err == nil {
			t.Fatalf("flip at byte %d accepted", off)
		}
	}
	if _, err := decodeNode(buf[:headerLen-1]); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestPageRejectsStructuralLies(t *testing.T) {
	// A page whose CRC is valid but whose cells lie structurally: out of
	// order keys. Build it by hand so the checksum passes.
	n := sampleLeaf()
	n.cells[0].key, n.cells[1].key = n.cells[1].key, n.cells[0].key
	buf, err := encodeNode(n, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeNode(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-order keys accepted: %v", err)
	}

	b := sampleBranch()
	b.keys = b.keys[:0]
	b.children = b.children[:1]
	b.size = branchBaseSize
	buf, err = encodeNode(b, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeNode(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("separator-less branch accepted: %v", err)
	}

	// A split hint past the key count, or on a branch, under a valid CRC.
	for _, c := range []struct {
		n    *node
		hint uint16
	}{{sampleLeaf(), 4}, {sampleBranch(), 1}} {
		buf, err := encodeNode(c.n, 256)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(buf[28:30], c.hint)
		crc := crc32.ChecksumIEEE(buf[0:30])
		crc = crc32.Update(crc, crc32.IEEETable, buf[headerLen:headerLen+c.n.size])
		binary.LittleEndian.PutUint32(buf[30:34], crc)
		if _, err := decodeNode(buf); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("split hint %d on a kind-%d page of %d keys accepted: %v", c.hint, c.n.kind, c.n.count(), err)
		}
	}
}

// FuzzBtreePageRoundTrip drives the codec both ways: arbitrary bytes must
// never panic the decoder, and any page it accepts must re-encode to an
// image that decodes to the same node. The seed corpus holds a leaf with
// a nonzero split hint. A second arm builds a leaf from the fuzz input,
// split hint included, checks the encode→decode round trip exactly, and
// then overwrites the image: the decoded leaf's keys and values view its
// own copy of the cell area, so they must not change.
func FuzzBtreePageRoundTrip(f *testing.F) {
	for _, n := range []*node{sampleLeaf(), sampleBranch()} {
		img, err := encodeNode(n, 160)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	f.Add(make([]byte, headerLen))
	f.Add([]byte("XBTP junk that is not a page at all, just prose"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if n, err := decodeNode(data); err == nil {
			size := headerLen + n.size
			if size < len(data) {
				size = len(data)
			}
			re, err := encodeNode(n, size)
			if err != nil {
				t.Fatalf("accepted page failed to re-encode: %v", err)
			}
			n2, err := decodeNode(re)
			if err != nil {
				t.Fatalf("re-encoded page rejected: %v", err)
			}
			if !nodesEqual(n, n2) {
				t.Fatalf("decode/encode/decode drifted: %+v vs %+v", n, n2)
			}
		}

		// Arm two: interpret the input as leaf entries and round-trip them.
		n := &node{id: 1, kind: kindLeaf}
		prev := ""
		for off := 0; off+2 <= len(data) && len(n.cells) < 64; {
			kl := int(data[off]%8) + 1
			vl := int(data[off+1] % 32)
			off += 2
			if off+kl+vl > len(data) {
				break
			}
			c := cell{
				key: prev + string(data[off:off+kl]), // strictly longer ⇒ strictly greater
				val: append([]byte(nil), data[off+kl:off+kl+vl]...),
			}
			off += kl + vl
			c.ver = int64(binary.LittleEndian.Uint16(data[off-2 : off]))
			c.tomb = kl%2 == 0
			n.cells = append(n.cells, c)
			n.size += c.size()
			prev = c.key
		}
		if len(data) > 0 {
			n.hint = int(data[0]) % (len(n.cells) + 1)
		}
		pageSize := headerLen + n.size + 16
		img, err := encodeNode(n, pageSize)
		if err != nil {
			t.Fatalf("synthetic leaf rejected: %v", err)
		}
		got, err := decodeNode(img)
		if err != nil {
			t.Fatalf("synthetic leaf image rejected: %v", err)
		}
		if !nodesEqual(n, got) {
			t.Fatalf("synthetic leaf drifted through codec")
		}
		for i := range img {
			img[i] ^= 0xFF
		}
		if !nodesEqual(n, got) {
			t.Fatalf("decoded leaf changed with the image it was decoded from")
		}
	})
}
