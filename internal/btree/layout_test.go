package btree

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// layoutFold runs a fixed-seed op mix — inserts, same-size / growing /
// shrinking updates, updates to an empty value and tombstones, with a
// checkpoint every 50 ops so the 8-frame pool evicts — and folds the
// resulting tree's whole physical shape: root id, allocation state, and
// the encoded image of every live page. Cache state (which frames are
// resident, LRU order) is deliberately not part of it. Every delete is a
// tombstone put, as in the engine, so the tree merges only where puts
// make it: the halves of a split and a node that shrank.
func layoutFold(t *testing.T, seed int64) uint64 {
	t.Helper()
	const (
		pageSize = 256
		keySpace = 1000
		ops      = 6000
		maxVal   = 50 // a cell stays under a third of the page, where a byte-midpoint split always fits both halves
	)
	rng := rand.New(rand.NewSource(seed))
	pg := NewPager(NewMemStore(pageSize, 1<<20), Config{PoolPages: 8})
	tr := New(pg)
	lens := map[string]int{} // value length of every present key
	freed := false           // a merge freed a page at some point
	val := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return b
	}
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("k%04d", rng.Intn(keySpace))
		lsn := int64(i + 1)
		old, present := lens[key]
		var err error
		op := rng.Intn(10)
		if drain := i >= ops/3 && i < 2*ops/3; drain && op >= 2 && present {
			// The middle third empties the rows it touches, half by
			// tombstones and half by updates to an empty value, so leaves
			// shrink and merge and their parents lose separators.
			op = 6 + 2*(op%2)
		}
		switch {
		case op < 4: // insert, or an update that grows or shrinks the entry
			n := rng.Intn(maxVal + 1)
			err = tr.Put(nil, key, Item{Ver: lsn, Val: val(n)}, lsn)
			lens[key] = n
		case op < 6 && present: // same-size update
			err = tr.Put(nil, key, Item{Ver: lsn, Val: val(old)}, lsn)
		case op < 7: // tombstone: the entry stays, its value goes
			err = tr.Put(nil, key, Item{Ver: lsn, Tomb: true}, lsn)
			lens[key] = 0
		case op < 8 && present: // shrinking update
			n := rng.Intn(old + 1)
			err = tr.Put(nil, key, Item{Ver: lsn, Val: val(n)}, lsn)
			lens[key] = n
		case op < 9 && present: // update to an empty value
			err = tr.Put(nil, key, Item{Ver: lsn, Val: []byte{}}, lsn)
			lens[key] = 0
		default: // delete, as db.Tx.DeleteIn does: a versioned tombstone
			err = tr.Put(nil, key, Item{Ver: lsn, Tomb: true}, lsn)
			lens[key] = 0
		}
		if err != nil {
			t.Fatalf("seed %d op %d on %q: %v", seed, i, key, err)
		}
		freed = freed || len(pg.freeIDs) > 0
		if i%50 == 49 {
			checkpointCycle(t, pg)
		}
	}
	if !freed {
		t.Fatalf("seed %d: no merge freed a page in %d ops", seed, ops)
	}
	if err := tr.CheckInvariants(nil); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if d := treeDepth(t, tr); d < 3 {
		t.Fatalf("seed %d: tree depth %d, the mix must build at least 3 levels", seed, d)
	}

	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(tr.Root())
	word(pg.nextID)
	free := map[uint64]bool{}
	for _, id := range pg.freeIDs {
		word(id)
		free[id] = true
	}
	for id := uint64(0); id < pg.nextID; id++ {
		if free[id] {
			continue
		}
		f, err := pg.fetch(nil, id)
		if err != nil {
			t.Fatalf("seed %d: live page %d: %v", seed, id, err)
		}
		img, err := encodeNode(f.n, pageSize)
		pg.unpin(f)
		if err != nil {
			t.Fatalf("seed %d: encode page %d: %v", seed, id, err)
		}
		h.Write(img)
	}
	return h.Sum64()
}

// treeDepth counts the pages on a root-to-leaf path.
func treeDepth(t testing.TB, tr *Tree) int {
	t.Helper()
	depth := 0
	for id := tr.Root(); ; depth++ {
		f, err := tr.pg.fetch(nil, id)
		if err != nil {
			t.Fatalf("depth walk: page %d: %v", id, err)
		}
		n := f.n
		tr.pg.unpin(f)
		if n.kind == kindLeaf {
			return depth + 1
		}
		id = n.children[0]
	}
}

// TestTreeLayoutPinned pins the tree's page layout as a pure function of
// the operation history: the fold below was recorded on the code that
// splits an ascending run at its insertion point and leaves the run's
// left page at most 7/8 full, with the split hint in the page image, over
// an op mix that deletes by tombstone, and must never be edited by a
// change that claims to leave page shape alone.
func TestTreeLayoutPinned(t *testing.T) {
	const seeds = 24
	const want = uint64(0x5e32a2c88ae7fbc5)
	h := fnv.New64a()
	for seed := int64(1); seed <= seeds; seed++ {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], layoutFold(t, seed))
		h.Write(b[:])
	}
	if got := h.Sum64(); got != want {
		t.Errorf("layout fold over %d seeds = %#016x, want %#016x (the same op history now builds different pages)", seeds, got, want)
	}
}
