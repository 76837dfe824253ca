package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"xssd/internal/sim"
)

// checkpointCycle runs one full checkpoint against a MemStore-backed
// pager (zero virtual time, nil proc) so frames go clean and become
// evictable mid-test.
func checkpointCycle(t testing.TB, pg *Pager) {
	t.Helper()
	snap, err := pg.SnapshotCheckpoint()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := pg.WriteImages(nil, snap.Images); err != nil {
		t.Fatalf("write images: %v", err)
	}
	if err := pg.Sync(nil); err != nil {
		t.Fatalf("sync: %v", err)
	}
	pg.CommitCheckpoint(snap)
}

func oracleKeys(oracle map[string]Item) []string {
	keys := make([]string, 0, len(oracle))
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compareWithOracle asserts the tree and the sorted-map oracle hold
// identical contents and that Scan visits them in sorted key order.
func compareWithOracle(tr *Tree, oracle map[string]Item) error {
	var scanned []string
	var serr error
	err := tr.Scan(nil, func(key string, it Item) bool {
		scanned = append(scanned, key)
		want, ok := oracle[key]
		if !ok {
			serr = fmt.Errorf("scan surfaced key %q the oracle lacks", key)
			return false
		}
		if want.Ver != it.Ver || want.Tomb != it.Tomb || string(want.Val) != string(it.Val) {
			serr = fmt.Errorf("key %q: tree {%d %q %v}, oracle {%d %q %v}",
				key, it.Ver, it.Val, it.Tomb, want.Ver, want.Val, want.Tomb)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if serr != nil {
		return serr
	}
	if len(scanned) != len(oracle) {
		return fmt.Errorf("scan saw %d keys, oracle holds %d", len(scanned), len(oracle))
	}
	if !sort.StringsAreSorted(scanned) {
		return fmt.Errorf("scan order not sorted")
	}
	for i, k := range oracleKeys(oracle) {
		if scanned[i] != k {
			return fmt.Errorf("scan position %d: %q, oracle %q", i, scanned[i], k)
		}
	}
	return nil
}

// TestTreeQuickVsOracle is the property suite: random op sequences
// against a sorted-map oracle, with structural invariants (ordering,
// uniform depth, size accounting, occupancy floor) re-checked after every
// mutation so the violating op is pinpointed, not just the end state.
func TestTreeQuickVsOracle(t *testing.T) {
	pageSize := 512
	ops := 400
	maxCount := 30
	if testing.Short() {
		ops, maxCount = 150, 8
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		store := NewMemStore(pageSize, 4096)
		pg := NewPager(store, Config{PoolPages: 8})
		tr := New(pg)
		oracle := map[string]Item{}
		for i := 0; i < ops; i++ {
			key := fmt.Sprintf("k%04d", rng.Intn(120))
			switch op := rng.Intn(10); {
			case op < 7: // put (insert, update, or tombstone)
				it := Item{
					Ver:  int64(i + 1),
					Val:  []byte(fmt.Sprintf("v%d-%s", i, string(make([]byte, rng.Intn(120))))),
					Tomb: rng.Intn(8) == 0,
				}
				if err := tr.Put(nil, key, it, int64(i+1)); err != nil {
					t.Logf("seed %d op %d: put: %v", seed, i, err)
					return false
				}
				oracle[key] = it
			case op < 9: // physical remove — the only path that merges
				got, err := tr.Remove(nil, key, int64(i+1))
				if err != nil {
					t.Logf("seed %d op %d: remove: %v", seed, i, err)
					return false
				}
				_, want := oracle[key]
				if got != want {
					t.Logf("seed %d op %d: remove %q returned %v, oracle %v", seed, i, key, got, want)
					return false
				}
				delete(oracle, key)
			default: // point read
				it, ok, err := tr.Get(nil, key)
				if err != nil {
					t.Logf("seed %d op %d: get: %v", seed, i, err)
					return false
				}
				want, wok := oracle[key]
				if ok != wok || (ok && (it.Ver != want.Ver || string(it.Val) != string(want.Val) || it.Tomb != want.Tomb)) {
					t.Logf("seed %d op %d: get %q mismatch", seed, i, key)
					return false
				}
			}
			if err := tr.CheckInvariants(nil); err != nil {
				t.Logf("seed %d op %d: %v", seed, i, err)
				return false
			}
			// Periodic checkpoints clean frames so the tiny pool actually
			// evicts and later fetches exercise the codec path.
			if i%64 == 63 {
				checkpointCycle(t, pg)
			}
		}
		if err := compareWithOracle(tr, oracle); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPutAdmission is Put's admission rule as a property: random puts
// on 256-byte pages whose leaf cells range up to the whole cell area. A
// cell over a third of the area must be refused with ErrTooLarge; every
// other put must be accepted and leave a tree that passes CheckInvariants
// and whose pages all encode (each put is followed by a checkpoint, so
// the 8-frame pool also evicts and re-reads pages).
func TestQuickPutAdmission(t *testing.T) {
	const pageSize = 256
	maxCell := pageSize - headerLen
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pg := NewPager(NewMemStore(pageSize, 1<<20), Config{PoolPages: 8})
		tr := New(pg)
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("k%03d", rng.Intn(200))
			vlen := rng.Intn(maxCell - leafCellSize(key, nil) + 1)
			if rng.Intn(2) == 0 { // half the puts land within a few bytes of the limit
				vlen = maxCell/3 - leafCellSize(key, nil) + rng.Intn(9) - 4
			}
			lsn := int64(i + 1)
			err := tr.Put(nil, key, Item{Ver: lsn, Val: make([]byte, vlen)}, lsn)
			if cell := leafCellSize(key, make([]byte, vlen)); 3*cell > maxCell {
				if !errors.Is(err, ErrTooLarge) {
					t.Logf("seed %d op %d: a %d-byte cell in a %d-byte area was admitted (%v)", seed, i, cell, maxCell, err)
					return false
				}
			} else if err != nil {
				t.Logf("seed %d op %d: put of a %d-byte cell: %v", seed, i, cell, err)
				return false
			}
			if err := tr.CheckInvariants(nil); err != nil {
				t.Logf("seed %d op %d: %v", seed, i, err)
				return false
			}
			snap, err := pg.SnapshotCheckpoint()
			if err != nil {
				t.Logf("seed %d op %d: %v", seed, i, err)
				return false
			}
			if err := pg.WriteImages(nil, snap.Images); err != nil {
				t.Fatal(err)
			}
			pg.CommitCheckpoint(snap)
		}
		return true
	}
	cfg := &quick.Config{MaxCountScale: 0.25, Rand: rand.New(rand.NewSource(29))}
	if testing.Short() {
		cfg.MaxCountScale = 0.05
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestValueOutlivesEviction holds the contract Get's values rest on
// (DESIGN §9): a value decoded from a page views that page's cell-area
// copy, which nothing writes again. It keeps its bytes after its frame is
// evicted, the page is read back and a neighbouring key is updated, and
// an append to it reallocates instead of writing over the next cell.
func TestValueOutlivesEviction(t *testing.T) {
	pg := NewPager(NewMemStore(512, 64), Config{PoolPages: 4})
	tr := New(pg)
	put := func(key, val string, lsn int64) {
		t.Helper()
		if err := tr.Put(nil, key, Item{Ver: lsn, Val: []byte(val)}, lsn); err != nil {
			t.Fatal(err)
		}
	}
	get := func(key string) []byte {
		t.Helper()
		it, ok, err := tr.Get(nil, key)
		if err != nil || !ok {
			t.Fatalf("get %q: found %v, %v", key, ok, err)
		}
		return it.Val
	}
	put("a", "aaaaaaaaaaaaaaaa", 1)
	put("b", "bbbbbbbbbbbbbbbb", 1)
	put("c", "cccccccccccccccc", 1)
	checkpointCycle(t, pg)
	evictAll(pg)

	b, c := get("b"), get("c") // both view the one copy the miss made
	grown := append(b, bytes.Repeat([]byte{'X'}, 64)...)
	if string(c) != "cccccccccccccccc" || string(get("c")) != "cccccccccccccccc" {
		t.Fatalf("appending to b's value wrote over its neighbour: c reads %q", get("c"))
	}
	if string(grown[:16]) != "bbbbbbbbbbbbbbbb" {
		t.Fatalf("append lost b's bytes: %q", grown)
	}

	evictAll(pg)
	put("c", "CCCCCCCCCCCCCCCC", 2) // re-reads the page, then updates b's neighbour
	put("a", "A", 2)
	checkpointCycle(t, pg)
	evictAll(pg)
	if got := string(get("c")); got != "CCCCCCCCCCCCCCCC" {
		t.Fatalf("c reads %q after its update", got)
	}
	if string(b) != "bbbbbbbbbbbbbbbb" || string(c) != "cccccccccccccccc" {
		t.Fatalf("values read before eviction changed: b %q, c %q", b, c)
	}
}

// TestTreeSplitAndMergeDepth drives the tree up through repeated splits
// and back down through merges, checking depth transitions and contents.
func TestTreeSplitAndMergeDepth(t *testing.T) {
	store := NewMemStore(256, 65536)
	pg := NewPager(store, Config{PoolPages: 16})
	tr := New(pg)
	const n = 500
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%05d", i*7919%n)
		if err := tr.Put(nil, key, Item{Ver: int64(i + 1), Val: []byte("xxxxxxxxxxxxxxxx")}, int64(i+1)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := tr.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
	rootF, err := pg.fetch(nil, tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	if rootF.n.kind != kindBranch {
		t.Fatal("500 keys on 256-byte pages did not grow a branch root")
	}
	pg.unpin(rootF)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%05d", i*7919%n)
		removed, err := tr.Remove(nil, key, int64(n+i+1))
		if err != nil {
			t.Fatalf("remove %d: %v", i, err)
		}
		if !removed {
			t.Fatalf("remove %d: key %q missing", i, key)
		}
		if err := tr.CheckInvariants(nil); err != nil {
			t.Fatalf("after remove %d: %v", i, err)
		}
	}
	count := 0
	if err := tr.Scan(nil, func(string, Item) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("%d keys survived full removal", count)
	}
	if rf, err := pg.fetch(nil, tr.Root()); err != nil {
		t.Fatal(err)
	} else {
		if rf.n.kind != kindLeaf {
			t.Fatal("empty tree did not collapse back to a leaf root")
		}
		pg.unpin(rf)
	}
}

// TestPagerEvictionTinyPool pins the pool at 4 frames, loads far more
// pages than fit, and verifies scans stay correct while eviction actually
// happens — every re-fetch goes through the store and the codec.
func TestPagerEvictionTinyPool(t *testing.T) {
	store := NewMemStore(512, 65536)
	pg := NewPager(store, Config{PoolPages: 4})
	tr := New(pg)
	oracle := map[string]Item{}
	const n = 300
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("row-%04d", i)
		it := Item{Ver: int64(i + 1), Val: []byte(fmt.Sprintf("payload-%d-%s", i, string(make([]byte, 60))))}
		if err := tr.Put(nil, key, it, int64(i+1)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		oracle[key] = it
		if i%32 == 31 {
			checkpointCycle(t, pg)
		}
	}
	checkpointCycle(t, pg)
	if pg.dirtyN != 0 {
		t.Fatalf("%d dirty pages after checkpoint", pg.dirtyN)
	}
	// A full scan touches every page; the pool may transiently hold a
	// pinned root path above the cap but must come back down to it.
	if err := compareWithOracle(tr, oracle); err != nil {
		t.Fatal(err)
	}
	if pg.Resident() > 4+3 { // cap + a pinned descent path
		t.Fatalf("resident %d frames against pool of 4", pg.Resident())
	}
	if err := tr.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
	// Updates after eviction must land on re-fetched pages correctly.
	for i := 0; i < n; i += 17 {
		key := fmt.Sprintf("row-%04d", i)
		it := Item{Ver: int64(n + i), Val: []byte("updated")}
		if err := tr.Put(nil, key, it, int64(n+i)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		oracle[key] = it
	}
	if err := compareWithOracle(tr, oracle); err != nil {
		t.Fatal(err)
	}
}

// TestPagerAbortRequeuesImages covers the aborted-checkpoint path: images
// whose frames went clean at the snapshot must reappear in the next
// snapshot (pendingRewrite), or recovery would lose their updates.
func TestPagerAbortRequeuesImages(t *testing.T) {
	store := NewMemStore(512, 4096)
	pg := NewPager(store, Config{PoolPages: 8})
	tr := New(pg)
	for i := 0; i < 40; i++ {
		if err := tr.Put(nil, fmt.Sprintf("k%03d", i), Item{Ver: 1, Val: []byte("abcdefghij")}, 1); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := pg.SnapshotCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Images) == 0 {
		t.Fatal("no dirty pages captured")
	}
	// Crash before the record lands: the snapshot never commits. One page
	// gets re-dirtied, the rest must ride pendingRewrite into the next
	// snapshot.
	if err := tr.Put(nil, "k000", Item{Ver: 2, Val: []byte("fresh")}, 2); err != nil {
		t.Fatal(err)
	}
	snap2, err := pg.SnapshotCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]PageImage{}
	for _, img := range snap2.Images {
		got[img.ID] = img
	}
	for _, img := range snap.Images {
		if _, ok := got[img.ID]; !ok {
			t.Fatalf("aborted page %d missing from the next snapshot", img.ID)
		}
	}
	// No checkpoint ever committed, so every image still targets the
	// non-committed slot (parity 1) — the committed slot pair is never
	// overwritten by retries of a failed checkpoint.
	sawRedirty := false
	for _, img := range got {
		if img.Parity != 1 {
			t.Fatalf("page %d image targets committed parity %d", img.ID, img.Parity)
		}
		if img.LSN >= 2 {
			sawRedirty = true
		}
	}
	if !sawRedirty {
		t.Fatal("re-dirtied page's fresh image (lsn 2) missing from second snapshot")
	}
}

// slowStore is a MemStore whose reads take virtual time, like a device:
// a fetch miss yields inside Read, so other processes run meanwhile.
type slowStore struct{ *MemStore }

func (s slowStore) Read(p *sim.Proc, slot int64, buf []byte) error {
	p.Sleep(10 * time.Microsecond)
	return s.MemStore.Read(p, slot, buf)
}

// TestConcurrentMissesShareOneFrame has two processes miss on the same
// evicted page while the store read is in flight. The writer comes back
// first and updates the page; the reader's miss must then adopt that
// frame, not install a second one over it — or the update lives on in an
// orphan that no later read and no checkpoint snapshot ever sees.
func TestConcurrentMissesShareOneFrame(t *testing.T) {
	pg := NewPager(slowStore{NewMemStore(512, 4096)}, Config{PoolPages: 4})
	tr := New(pg)
	if err := tr.Put(nil, "k", Item{Ver: 1, Val: []byte("old")}, 1); err != nil {
		t.Fatal(err)
	}
	checkpointCycle(t, pg)
	pg.pool = 0 // evict the now-clean root leaf
	pg.evict()
	pg.pool = 4
	if pg.Resident() != 0 {
		t.Fatalf("%d frames resident after eviction, want 0", pg.Resident())
	}

	env := sim.NewEnv(1)
	var seen Item
	env.Go("writer", func(p *sim.Proc) {
		if err := tr.Put(p, "k", Item{Ver: 2, Val: []byte("new")}, 2); err != nil {
			t.Errorf("put: %v", err)
		}
	})
	env.Go("reader", func(p *sim.Proc) {
		p.Sleep(time.Microsecond) // miss while the writer's read is in flight
		it, _, err := tr.Get(p, "k")
		if err != nil {
			t.Errorf("get: %v", err)
		}
		seen = it
	})
	env.RunUntil(time.Millisecond)

	if seen.Ver != 2 || string(seen.Val) != "new" {
		t.Errorf("concurrent reader saw ver %d %q, want the update (ver 2 \"new\")", seen.Ver, seen.Val)
	}
	if it, _, _ := tr.Get(nil, "k"); it.Ver != 2 {
		t.Errorf("later read sees ver %d: the update went to an orphaned frame", it.Ver)
	}
	if pg.Resident() != 1 || pg.dirtyN != 1 {
		t.Errorf("resident %d, dirty %d frames; want one frame for the one page", pg.Resident(), pg.dirtyN)
	}
	snap, err := pg.SnapshotCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Images) != 1 || snap.Images[0].LSN != 2 {
		t.Errorf("checkpoint after the update captured %d images (LSN %v), want the updated page at LSN 2", len(snap.Images), snap.Images)
	}
}
