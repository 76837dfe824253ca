// Package btree implements the paged B+tree table store behind the
// database engine's paged mode: fixed-size pages with a versioned binary
// codec, a no-steal LRU buffer pool (the Pager), and shadow-slot page
// placement so fuzzy checkpoints never overwrite the images the last
// complete checkpoint still references. Pages live on the conventional
// side of a Villars device (DeviceStore) or in plain memory (MemStore,
// for oracles and tests); either way the byte format is identical.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"unsafe"
)

// Page header layout (little-endian), headerLen bytes:
//
//	[0:4)   magic "XBTP"
//	[4:6)   codec version
//	[6:7)   node kind (leaf or branch)
//	[7:8)   reserved, must be zero
//	[8:16)  page id
//	[16:24) recovery LSN (end LSN of the last redo record applied)
//	[24:26) key count
//	[26:28) cell-area byte length
//	[28:30) split hint: 1 + the index of the leaf's last inserted cell, 0
//	        for none (always 0 on a branch; never past the key count)
//	[30:34) CRC-32 (IEEE) over bytes [0:30) ++ cells [headerLen:headerLen+used)
//
// Version 2 added the split hint (and with it two header bytes).
const (
	pageMagic   = 0x50544258 // "XBTP"
	pageVersion = 2
	headerLen   = 34

	kindLeaf   = 1
	kindBranch = 2
)

// Codec errors. ErrCorrupt wraps every structural rejection so callers
// can match the class with errors.Is.
var (
	ErrCorrupt  = errors.New("btree: corrupt page")
	ErrTooLarge = errors.New("btree: entry too large for page")
)

// node is the decoded form of one page. A leaf holds its entries sorted
// by key; a branch holds keys as separators with children[i] covering
// keys below keys[i] (children[i+1] holds keys >= keys[i], the separator
// being the smallest key of its right subtree).
type node struct {
	id   uint64
	kind byte
	lsn  int64
	size int // cell-area bytes, maintained incrementally by the tree ops

	// hint is a leaf's split hint: 1 + the index of its last inserted
	// cell, or 0 for none. It is part of the page image, so a leaf keeps
	// it across eviction and recovery (see Tree.splitLeaf).
	hint int

	// leaf payload
	cells []cell

	// branch payload: len(children) == len(keys)+1
	keys     []string
	children []uint64
}

// cell is one leaf entry.
type cell struct {
	key  string
	ver  int64
	val  []byte
	tomb bool
}

// count is the number of keys n holds: entries in a leaf, separators in a
// branch.
func (n *node) count() int {
	if n.kind == kindLeaf {
		return len(n.cells)
	}
	return len(n.keys)
}

// key returns n's i-th key.
func (n *node) key(i int) string {
	if n.kind == kindLeaf {
		return n.cells[i].key
	}
	return n.keys[i]
}

// search returns the index of key in leaf n, or where it would go.
func (n *node) search(key string) (int, bool) {
	i := sort.Search(len(n.cells), func(i int) bool { return n.cells[i].key >= key })
	return i, i < len(n.cells) && n.cells[i].key == key
}

// leafCellSize is the encoded size of one leaf entry:
// flags(1) + klen(2) + vlen(2) + ver(8) + key + val.
func leafCellSize(key string, val []byte) int { return 13 + len(key) + len(val) }

// size is c's encoded size.
func (c *cell) size() int { return leafCellSize(c.key, c.val) }

// branchCellSize is the encoded size of one branch entry past the first
// child pointer: klen(2) + key + child(8).
func branchCellSize(key string) int { return 10 + len(key) }

// branchBaseSize is the encoded size of a branch node's leading child
// pointer.
const branchBaseSize = 8

// encodeNode serializes n into a freshly zeroed pageSize buffer. The tail
// past the cell area is zero, so identical logical content always yields
// identical page bytes (the device images are part of the recovery
// contract and of the determinism fingerprint).
func encodeNode(n *node, pageSize int) ([]byte, error) {
	if n.size > pageSize-headerLen {
		return nil, fmt.Errorf("%w: node %d cell area %d over page size %d", ErrTooLarge, n.id, n.size, pageSize)
	}
	if n.hint > n.count() || (n.kind == kindBranch && n.hint != 0) {
		return nil, fmt.Errorf("btree: node %d split hint %d on a kind-%d node of %d keys", n.id, n.hint, n.kind, n.count())
	}
	buf := make([]byte, pageSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:4], pageMagic)
	le.PutUint16(buf[4:6], pageVersion)
	buf[6] = n.kind
	le.PutUint64(buf[8:16], n.id)
	le.PutUint64(buf[16:24], uint64(n.lsn))
	le.PutUint16(buf[24:26], uint16(n.count()))
	le.PutUint16(buf[28:30], uint16(n.hint))
	off := headerLen
	switch n.kind {
	case kindLeaf:
		for _, c := range n.cells {
			flags := byte(0)
			if c.tomb {
				flags = 1
			}
			buf[off] = flags
			le.PutUint16(buf[off+1:off+3], uint16(len(c.key)))
			le.PutUint16(buf[off+3:off+5], uint16(len(c.val)))
			le.PutUint64(buf[off+5:off+13], uint64(c.ver))
			off += 13
			off += copy(buf[off:], c.key)
			off += copy(buf[off:], c.val)
		}
	case kindBranch:
		le.PutUint64(buf[off:off+8], n.children[0])
		off += 8
		for i, k := range n.keys {
			le.PutUint16(buf[off:off+2], uint16(len(k)))
			off += 2
			off += copy(buf[off:], k)
			le.PutUint64(buf[off:off+8], n.children[i+1])
			off += 8
		}
	default:
		return nil, fmt.Errorf("%w: node %d has kind %d", ErrCorrupt, n.id, n.kind)
	}
	used := off - headerLen
	if used != n.size {
		return nil, fmt.Errorf("btree: node %d size accounting drifted: tracked %d, encoded %d", n.id, n.size, used)
	}
	le.PutUint16(buf[26:28], uint16(used))
	crc := crc32.ChecksumIEEE(buf[0:30])
	crc = crc32.Update(crc, crc32.IEEETable, buf[headerLen:headerLen+used])
	le.PutUint32(buf[30:34], crc)
	return buf, nil
}

// decodeNode parses one page, verifying magic, version, reserved byte,
// CRC, every cell's bounds, key order and that no bytes trail the last
// cell. It copies the cell area once, after the header and CRC checks,
// and parses the cells out of that copy: a key is a string view of its
// bytes there and a value a sub-slice capped at its own length, so an
// append by a caller reallocates instead of writing over the next cell.
// Nothing writes the copy again or recycles it — it lives as long as any
// key or value still points into it — so the node shares nothing with
// data, and a page costs the same handful of allocations whatever its
// cell count (TestMissAllocsIndependentOfCellCount). A page that fails a
// cell check drops the copy with the error.
func decodeNode(data []byte) (*node, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrCorrupt, len(data), headerLen)
	}
	le := binary.LittleEndian
	if le.Uint32(data[0:4]) != pageMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, le.Uint32(data[0:4]))
	}
	if v := le.Uint16(data[4:6]); v != pageVersion {
		return nil, fmt.Errorf("%w: codec version %d, want %d", ErrCorrupt, v, pageVersion)
	}
	if data[7] != 0 {
		return nil, fmt.Errorf("%w: reserved byte %#x", ErrCorrupt, data[7])
	}
	kind := data[6]
	if kind != kindLeaf && kind != kindBranch {
		return nil, fmt.Errorf("%w: kind %d", ErrCorrupt, kind)
	}
	nkeys := int(le.Uint16(data[24:26]))
	used := int(le.Uint16(data[26:28]))
	if headerLen+used > len(data) {
		return nil, fmt.Errorf("%w: cell area %d overruns %d-byte page", ErrCorrupt, used, len(data))
	}
	crc := crc32.ChecksumIEEE(data[0:30])
	crc = crc32.Update(crc, crc32.IEEETable, data[headerLen:headerLen+used])
	if got := le.Uint32(data[30:34]); got != crc {
		return nil, fmt.Errorf("%w: crc %#x, computed %#x", ErrCorrupt, got, crc)
	}
	hint := int(le.Uint16(data[28:30]))
	if hint > nkeys || (kind == kindBranch && hint != 0) {
		return nil, fmt.Errorf("%w: split hint %d on a kind-%d page of %d keys", ErrCorrupt, hint, kind, nkeys)
	}
	n := &node{
		id:   le.Uint64(data[8:16]),
		kind: kind,
		lsn:  int64(le.Uint64(data[16:24])),
		size: used,
		hint: hint,
	}
	cells := bytes.Clone(data[headerLen : headerLen+used])
	off := 0
	switch kind {
	case kindLeaf:
		n.cells = make([]cell, 0, nkeys)
		for i := 0; i < nkeys; i++ {
			if off+13 > used {
				return nil, fmt.Errorf("%w: leaf cell %d header overruns cell area", ErrCorrupt, i)
			}
			flags := cells[off]
			if flags > 1 {
				return nil, fmt.Errorf("%w: leaf cell %d flags %#x", ErrCorrupt, i, flags)
			}
			kl := int(le.Uint16(cells[off+1 : off+3]))
			vl := int(le.Uint16(cells[off+3 : off+5]))
			c := cell{ver: int64(le.Uint64(cells[off+5 : off+13])), tomb: flags == 1}
			off += 13
			if off+kl+vl > used {
				return nil, fmt.Errorf("%w: leaf cell %d body overruns cell area", ErrCorrupt, i)
			}
			c.key = view(cells[off : off+kl])
			off += kl
			if vl > 0 { // an empty value stays nil and pins nothing
				c.val = cells[off : off+vl : off+vl]
			}
			off += vl
			if i > 0 && c.key <= n.cells[i-1].key {
				return nil, fmt.Errorf("%w: leaf keys out of order at cell %d", ErrCorrupt, i)
			}
			n.cells = append(n.cells, c)
		}
	case kindBranch:
		if nkeys == 0 {
			return nil, fmt.Errorf("%w: branch with no separators", ErrCorrupt)
		}
		if off+8 > used {
			return nil, fmt.Errorf("%w: branch head overruns cell area", ErrCorrupt)
		}
		n.keys = make([]string, 0, nkeys)
		n.children = make([]uint64, 0, nkeys+1)
		n.children = append(n.children, le.Uint64(cells[0:8]))
		off = 8
		for i := 0; i < nkeys; i++ {
			if off+2 > used {
				return nil, fmt.Errorf("%w: branch cell %d header overruns cell area", ErrCorrupt, i)
			}
			kl := int(le.Uint16(cells[off : off+2]))
			off += 2
			if off+kl+8 > used {
				return nil, fmt.Errorf("%w: branch cell %d body overruns cell area", ErrCorrupt, i)
			}
			key := view(cells[off : off+kl])
			off += kl
			child := le.Uint64(cells[off : off+8])
			off += 8
			if i > 0 && key <= n.keys[i-1] {
				return nil, fmt.Errorf("%w: branch separators out of order at cell %d", ErrCorrupt, i)
			}
			n.keys = append(n.keys, key)
			n.children = append(n.children, child)
		}
	}
	if off != used {
		return nil, fmt.Errorf("%w: %d trailing cell bytes", ErrCorrupt, used-off)
	}
	return n, nil
}

// view returns b's bytes as a string without copying them. b must never
// be written again: decodeNode's cell-area copy is the only caller.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
