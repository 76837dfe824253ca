package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// runsTree is a tree of interleaved ascending runs: k district-like key
// prefixes, each loaded with an ascending head of keys first (like a
// TPC-C load), whose runs then grow at their tails.
type runsTree struct {
	t      testing.TB
	tr     *Tree
	pg     *Pager
	rng    *rand.Rand
	oracle map[string]Item
	head   []int // keys per prefix loaded before the runs began
	next   []int // next run key per prefix
	lsn    int64
}

const runsPageSize = 1024

func runsKey(d, i int) string { return fmt.Sprintf("d%02d:%06d", d, i) }

func newRunsTree(t testing.TB, rng *rand.Rand) (*runsTree, error) {
	pg := NewPager(NewMemStore(runsPageSize, 1<<20), Config{PoolPages: 8})
	k := 2 + rng.Intn(7)
	r := &runsTree{t: t, tr: New(pg), pg: pg, rng: rng, oracle: map[string]Item{}, head: make([]int, k), next: make([]int, k)}
	for d := range r.head {
		r.head[d] = 60 + rng.Intn(200)
		for r.next[d] < r.head[d] {
			if err := r.runInsert(d); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// put writes key through the tree and the oracle, checkpointing every 50
// writes so the 8-frame pool evicts and leaves come back from their
// images.
func (r *runsTree) put(key string, it Item) error {
	r.lsn++
	if err := r.tr.Put(nil, key, it, r.lsn); err != nil {
		return fmt.Errorf("put %q: %w", key, err)
	}
	r.oracle[key] = it
	r.tick()
	return nil
}

func (r *runsTree) tick() {
	if r.lsn%50 == 0 {
		checkpointCycle(r.t, r.pg)
	}
}

func (r *runsTree) value(n int) Item {
	return Item{Ver: r.lsn + 1, Val: bytes.Repeat([]byte{byte('a' + r.rng.Intn(26))}, n)}
}

// runInsert appends prefix d's next key: one step of its ascending run.
func (r *runsTree) runInsert(d int) error {
	key := runsKey(d, r.next[d])
	r.next[d]++
	return r.put(key, r.value(10+r.rng.Intn(20)))
}

// burst appends 1..12 keys to a random prefix's run.
func (r *runsTree) burst() error {
	d := r.rng.Intn(len(r.next))
	for n := 1 + r.rng.Intn(12); n > 0; n-- {
		if err := r.runInsert(d); err != nil {
			return err
		}
	}
	return nil
}

// roundTripPages encodes every live page, decodes the image and encodes
// the result again: the node and the bytes must both come back unchanged,
// split hint included.
func (r *runsTree) roundTripPages() error {
	free := map[uint64]bool{}
	for _, id := range r.pg.freeIDs {
		free[id] = true
	}
	for id := uint64(0); id < r.pg.nextID; id++ {
		if free[id] {
			continue
		}
		f, err := r.pg.fetch(nil, id)
		if err != nil {
			return err
		}
		n := f.n
		r.pg.unpin(f)
		img, err := encodeNode(n, runsPageSize)
		if err != nil {
			return fmt.Errorf("encode page %d: %w", id, err)
		}
		got, err := decodeNode(img)
		if err != nil {
			return fmt.Errorf("decode page %d: %w", id, err)
		}
		again, err := encodeNode(got, runsPageSize)
		if err != nil || !nodesEqual(n, got) || !bytes.Equal(img, again) {
			return fmt.Errorf("page %d (split hint %d) does not round-trip: %v", id, n.hint, err)
		}
	}
	return nil
}

// leaves returns the tree's leaves in key order.
func (r *runsTree) leaves() ([]*node, error) {
	var out []*node
	var walk func(id uint64) error
	walk = func(id uint64) error {
		f, err := r.pg.fetch(nil, id)
		if err != nil {
			return err
		}
		n := f.n
		r.pg.unpin(f)
		if n.kind == kindLeaf {
			out = append(out, n)
			return nil
		}
		for _, c := range n.children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return out, walk(r.tr.Root())
}

// mixedRuns interleaves ascending runs with random inserts, same-size,
// growing and shrinking updates and tombstones anywhere in the key space,
// and checks the tree against the oracle. It reports whether a merge freed
// a page along the way.
func mixedRuns(t testing.TB, rng *rand.Rand) (freed bool, err error) {
	r, err := newRunsTree(t, rng)
	if err != nil {
		return false, err
	}
	for i := 0; i < 600; i++ {
		d := rng.Intn(len(r.next))
		key := runsKey(d, rng.Intn(r.next[d]+20)) // past the tail, a later run step updates it
		switch op := rng.Intn(20); {
		case op < 10:
			err = r.burst()
		case op < 14: // insert or update, any size the admission rule takes
			err = r.put(key, r.value(rng.Intn(60)))
		default: // delete, as db.Tx.DeleteIn does: a versioned tombstone
			err = r.put(key, Item{Ver: r.lsn + 1, Tomb: true})
		}
		if err != nil {
			return false, fmt.Errorf("op %d: %w", i, err)
		}
		freed = freed || len(r.pg.freeIDs) > 0
		if i%25 == 0 {
			if err := r.tr.CheckInvariants(nil); err != nil {
				return false, fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	if err := r.tr.CheckInvariants(nil); err != nil {
		return false, err
	}
	if err := compareWithOracle(r.tr, r.oracle); err != nil {
		return false, err
	}
	return freed, r.roundTripPages()
}

// pureRuns grows only the runs, in random bursts, and checks page fill:
// every leaf holds at most runFill eighths of its cell area and less than
// one cell under that, except a run's last leaf (the one still filling)
// and a leaf that starts with a loaded key (the load's boundary leaves,
// which the first insert into a full leaf splits at the byte midpoint).
func pureRuns(t testing.TB, rng *rand.Rand) error {
	r, err := newRunsTree(t, rng)
	if err != nil {
		return err
	}
	for i := 0; i < 150; i++ {
		if err := r.burst(); err != nil {
			return err
		}
	}
	if err := r.tr.CheckInvariants(nil); err != nil {
		return err
	}
	if err := compareWithOracle(r.tr, r.oracle); err != nil {
		return err
	}
	leaves, err := r.leaves()
	if err != nil {
		return err
	}
	checked := 0
	reserve := r.pg.maxCell() * runFill / 8
	cellMax := leafCellSize(runsKey(0, 0), make([]byte, 29)) // runInsert's largest cell
	for _, n := range leaves {
		first, last := n.cells[0].key, n.cells[len(n.cells)-1].key
		var d, i int
		if _, err := fmt.Sscanf(first, "d%02d:%06d", &d, &i); err != nil {
			return err
		}
		tail := false
		for d, next := range r.next {
			if k := runsKey(d, next-1); first <= k && k <= last {
				tail = true
			}
		}
		if tail || i < r.head[d] {
			continue
		}
		checked++
		if n.size > reserve || n.size+cellMax <= reserve {
			return fmt.Errorf("leaf %d [%s..%s] holds %d bytes, want within one %d-byte cell under %d", n.id, first, last, n.size, cellMax, reserve)
		}
	}
	if checked == 0 {
		return fmt.Errorf("no leaf holds only run keys: %d leaves", len(leaves))
	}
	return r.roundTripPages()
}

// TestQuickAscendingRuns is the split rule as a property. Over
// interleaved ascending runs mixed with random writes and tombstones, the
// tree equals a sorted-map oracle, CheckInvariants holds, and every page
// image round-trips with its split hint; some seeds must merge pages on
// the way. On runs alone, the pages the runs fill end within one cell of
// runFill eighths full: a leaf splits at the insertion point, not the byte
// midpoint, and then gives back the cells past 7/8, which leaves each run
// page an eighth free to grow in.
func TestQuickAscendingRuns(t *testing.T) {
	merged := 0 // seeds whose mixed runs freed a page
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		freed, err := mixedRuns(t, rng)
		if err != nil {
			t.Logf("seed %d, mixed runs: %v", seed, err)
			return false
		}
		if freed {
			merged++
		}
		if err := pureRuns(t, rng); err != nil {
			t.Logf("seed %d, pure runs: %v", seed, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCountScale: 0.2, Rand: rand.New(rand.NewSource(47))}
	if testing.Short() {
		cfg.MaxCountScale = 0.05
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	if merged == 0 {
		t.Fatal("no seed's mixed runs merged a page: the occupancy floor was never restored")
	}
}

// TestRunSplitMovesCellsAfterTheRun is the small-page case where splitting
// an ascending run at the insertion point would overflow: on 256-byte
// pages (222 bytes of cells), a leaf holds a run's first cell and three
// cells above it, and the run's next cell makes it overflow. Starting the
// right page with the new cell would give it the new cell plus the three
// above, 224 bytes. The split moves only the cells after the run instead,
// and the run keeps its page.
func TestRunSplitMovesCellsAfterTheRun(t *testing.T) {
	pg := NewPager(NewMemStore(256, 1<<20), Config{PoolPages: 8})
	tr := New(pg)
	above := bytes.Repeat([]byte{'a'}, 35) // 50-byte cells
	next := bytes.Repeat([]byte{'n'}, 59)  // a 74-byte cell, the largest Put admits
	for i, w := range []struct {
		key string
		val []byte
	}{
		{"k7", above}, {"k8", above}, {"k9", above},
		{"k1", nil},  // the run's first step, at index 0
		{"k2", next}, // its next step, at index 1: 239 bytes, the leaf overflows
	} {
		if err := tr.Put(nil, w.key, Item{Ver: 1, Val: w.val}, int64(i+1)); err != nil {
			t.Fatalf("put %s: %v", w.key, err)
		}
	}
	if err := tr.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
	r := &runsTree{t: t, tr: tr, pg: pg}
	leaves, err := r.leaves()
	if err != nil {
		t.Fatal(err)
	}
	var got [][]string
	for _, n := range leaves {
		var keys []string
		for _, c := range n.cells {
			keys = append(keys, c.key)
		}
		got = append(got, keys)
	}
	if want := "[[k1 k2] [k7 k8 k9]]"; fmt.Sprint(got) != want {
		t.Fatalf("leaves %v, want %s", got, want)
	}
	if h := leaves[0].hint; h != 2 {
		t.Errorf("the run's leaf has split hint %d, want 2: its next insert, at index 2, continues the run", h)
	}
}

// TestSortedPutsLeaveAGrowthReserve builds a tree the way a paged engine
// builds a loaded table, by Put in key order, from order-line-shaped rows
// on 4 KiB pages: 14-byte keys and 23-byte values, 50-byte cells. Every
// leaf but the last ends within one cell of runFill eighths full, and
// growing every row by 7 bytes, as TPC-C's Delivery does with its date,
// splits no leaf.
func TestSortedPutsLeaveAGrowthReserve(t *testing.T) {
	const rows, cell = 4000, 50
	pg := NewPager(NewMemStore(4096, 1<<24), Config{PoolPages: 1024})
	tr := New(pg)
	key := func(i int) string { return fmt.Sprintf("ol:1:1:%04d:%02d", i/10, i%10+1) }
	lsn := int64(0)
	putAll := func(vlen int) {
		for i := range rows {
			lsn++
			if err := tr.Put(nil, key(i), Item{Ver: lsn, Val: bytes.Repeat([]byte{'v'}, vlen)}, lsn); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.CheckInvariants(nil); err != nil {
			t.Fatal(err)
		}
	}
	putAll(cell - leafCellSize(key(0), nil))
	leaves, err := (&runsTree{t: t, tr: tr, pg: pg}).leaves()
	if err != nil {
		t.Fatal(err)
	}
	reserve := pg.maxCell() * runFill / 8
	for _, n := range leaves[:len(leaves)-1] {
		if n.size > reserve || n.size+cell <= reserve {
			t.Fatalf("leaf %d [%s..] holds %d bytes, want within one %d-byte cell under %d", n.id, n.cells[0].key, n.size, cell, reserve)
		}
	}
	pages := pg.nextID
	putAll(cell + 7 - leafCellSize(key(0), nil))
	if pg.nextID != pages {
		t.Errorf("growing every cell by 7 bytes took the tree from %d to %d pages: %d leaves had no room", pages, pg.nextID, pg.nextID-pages)
	}
}
