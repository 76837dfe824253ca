package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"xssd/internal/obs"
	"xssd/internal/sim"
)

// countingStore counts the page reads that reach the backing store.
type countingStore struct {
	*MemStore
	reads int64
}

func (s *countingStore) Read(p *sim.Proc, slot int64, buf []byte) error {
	s.reads++
	return s.MemStore.Read(p, slot, buf)
}

const (
	budgetPageSize = 256
	budgetKeys     = 600
	budgetMaxVal   = 50 // a cell stays under a third of the page, so a split always fits both halves
)

func budgetKey(i int) string { return fmt.Sprintf("k%04d", i) }

// deepTree is a tree of at least three levels on 256-byte pages behind a
// counting store, with live pager instruments and the value length of
// every key.
type deepTree struct {
	tr    *Tree
	pg    *Pager
	store *countingStore
	lens  map[string]int
}

func buildDeepTree(tb testing.TB, rng *rand.Rand, pool int) *deepTree {
	tb.Helper()
	store := &countingStore{MemStore: NewMemStore(budgetPageSize, 1<<20)}
	pg := NewPager(store, Config{PoolPages: pool, Scope: obs.For(sim.NewEnv(1)).Scope("pager")})
	d := &deepTree{tr: New(pg), pg: pg, store: store, lens: map[string]int{}}
	for i, k := range rng.Perm(budgetKeys) {
		d.put(tb, budgetKey(k), rng.Intn(budgetMaxVal+1), int64(i+1))
		if i%50 == 49 {
			checkpointCycle(tb, pg)
		}
	}
	if depth := treeDepth(tb, d.tr); depth < 3 {
		tb.Fatalf("%d keys on %d-byte pages built %d levels, want at least 3", budgetKeys, budgetPageSize, depth)
	}
	return d
}

func (d *deepTree) put(tb testing.TB, key string, vlen int, lsn int64) {
	tb.Helper()
	if err := d.tr.Put(nil, key, Item{Ver: lsn, Val: make([]byte, vlen)}, lsn); err != nil {
		tb.Fatalf("put %q (%d-byte value): %v", key, vlen, err)
	}
	d.lens[key] = vlen
}

// fetches is every page the pager was asked for, hit or miss.
func (d *deepTree) fetches() int64 { return d.pg.mHits.Value() + d.pg.mMisses.Value() }

// livePages is the number of allocated page ids.
func (d *deepTree) livePages() int { return int(d.pg.nextID) - len(d.pg.freeIDs) }

// leafOf walks to the leaf key routes to and returns its cell-area size
// and the number of pages on the path.
func (d *deepTree) leafOf(tb testing.TB, key string) (size, depth int) {
	tb.Helper()
	for id := d.tr.Root(); ; {
		f, err := d.pg.fetch(nil, id)
		if err != nil {
			tb.Fatalf("walk to %q: page %d: %v", key, id, err)
		}
		n := f.n
		d.pg.unpin(f)
		depth++
		if n.kind == kindLeaf {
			return n.size, depth
		}
		id = n.children[route(n.keys, key)]
	}
}

// goCold checkpoints and empties the pool, so the next operation reads
// every page it touches from the store.
func (d *deepTree) goCold(tb testing.TB) {
	tb.Helper()
	checkpointCycle(tb, d.pg)
	evictAll(d.pg)
	if d.pg.Resident() != 0 {
		tb.Fatalf("%d frames resident after a checkpoint and a full eviction", d.pg.Resident())
	}
}

// evictAll drops every clean, unpinned frame from the pool.
func evictAll(pg *Pager) {
	pool := pg.pool
	pg.pool = 0
	pg.evict()
	pg.pool = pool
}

// TestPutReadsOnlyItsPath is the read budget of a put as a property over
// random trees of depth >= 3 on an 8-frame pool. A put that neither
// shrinks nor splits its leaf fetches exactly the pages on its
// root-to-leaf path: depth pager fetches, no sibling probe, and at most
// depth store reads (exactly depth from a cold pool). A put that shrinks
// its leaf still restores the occupancy floor: CheckInvariants runs after
// every operation, and emptying a run of neighboring leaves must merge
// some of them.
func TestPutReadsOnlyItsPath(t *testing.T) {
	maxCell := budgetPageSize - headerLen
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := buildDeepTree(t, rng, 8)
		lsn := int64(budgetKeys)
		onPath := 0
		for i := 0; i < 120; i++ {
			key := budgetKey(rng.Intn(budgetKeys + 50)) // some inserts of absent keys
			vlen := rng.Intn(budgetMaxVal + 1)
			if old, ok := d.lens[key]; ok && rng.Intn(3) == 0 {
				vlen = old // same-size update
			}
			delta := leafCellSize(key, make([]byte, vlen))
			if old, ok := d.lens[key]; ok {
				delta -= leafCellSize(key, make([]byte, old))
			}
			size, depth := d.leafOf(t, key)
			cold := rng.Intn(2) == 0
			if cold {
				d.goCold(t)
			}
			f0, p0, r0 := d.fetches(), d.pg.mProbes.Value(), d.store.reads
			lsn++
			d.put(t, key, vlen, lsn)
			fetches, probes, reads := d.fetches()-f0, d.pg.mProbes.Value()-p0, d.store.reads-r0
			if delta >= 0 && size+delta <= maxCell {
				onPath++
				if fetches != int64(depth) || probes != 0 || reads > int64(depth) || (cold && reads != int64(depth)) {
					t.Logf("seed %d op %d: put %q (leaf %d%+d bytes, depth %d, cold %v) took %d fetches, %d merge probes, %d store reads",
						seed, i, key, size, delta, depth, cold, fetches, probes, reads)
					return false
				}
			}
			if err := d.tr.CheckInvariants(nil); err != nil {
				t.Logf("seed %d op %d: put %q: %v", seed, i, key, err)
				return false
			}
		}
		if onPath == 0 {
			t.Logf("seed %d: no put kept its leaf's size without splitting it", seed)
			return false
		}

		// Empty the values of the 60 smallest keys, in key order: their
		// leaves fall under the fill floor side by side, so shrinking
		// puts must merge them — the floor is checked after each one.
		keys := make([]string, 0, len(d.lens))
		for k := range d.lens {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		pages, p0 := d.livePages(), d.pg.mProbes.Value()
		for _, key := range keys[:60] {
			lsn++
			d.put(t, key, 0, lsn)
			if err := d.tr.CheckInvariants(nil); err != nil {
				t.Logf("seed %d: shrinking put %q: %v", seed, key, err)
				return false
			}
		}
		if d.livePages() >= pages || d.pg.mProbes.Value() == p0 {
			t.Logf("seed %d: emptying 60 adjacent entries merged nothing (%d -> %d pages, %d probes)",
				seed, pages, d.livePages(), d.pg.mProbes.Value()-p0)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCountScale: 0.3, Rand: rand.New(rand.NewSource(24))}
	if testing.Short() {
		cfg.MaxCountScale = 0.05
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// sameSizePuts rewrites n random present keys with values of their
// current length — the put that TPC-C issues most (fixed-width rows) —
// and returns the pager fetches and merge probes it took.
func sameSizePuts(tb testing.TB, d *deepTree, rng *rand.Rand, n int) (fetches, probes int64) {
	f0, p0 := d.fetches(), d.pg.mProbes.Value()
	for i := 0; i < n; i++ {
		key := budgetKey(rng.Intn(budgetKeys))
		d.put(tb, key, d.lens[key], int64(budgetKeys+i+1))
	}
	return d.fetches() - f0, d.pg.mProbes.Value() - p0
}

// TestTreePutFetchBudget asserts what BenchmarkTreePut reports: a
// same-size put costs one pager fetch per tree level and no probe.
func TestTreePutFetchBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	d := buildDeepTree(t, rng, 8)
	depth := treeDepth(t, d.tr)
	const n = 1000
	if fetches, probes := sameSizePuts(t, d, rng, n); fetches != int64(n*depth) || probes != 0 {
		t.Errorf("%d same-size puts on a %d-level tree took %d fetches (%.2f/op) and %d merge probes, want %d/op and none",
			n, depth, fetches, float64(fetches)/n, probes, depth)
	}
}

// BenchmarkTreePut is the pager-layer microbench: a same-size put on a
// deep tree under a pool that holds all of it, reporting pager
// fetches per put beside the allocation count.
func BenchmarkTreePut(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	d := buildDeepTree(b, rng, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	fetches, _ := sameSizePuts(b, d, rng, b.N)
	b.ReportMetric(float64(fetches)/float64(b.N), "fetches/op")
}

// coldLeaf builds a one-page tree of n 40-byte entries on a 4 KB page,
// checkpointed and evicted, and returns it with its middle key: a Get of
// that key is one pool miss that decodes the whole leaf.
func coldLeaf(tb testing.TB, n int) (*Tree, string) {
	tb.Helper()
	pg := NewPager(NewMemStore(4096, 16), Config{PoolPages: 4})
	tr := New(pg)
	for i := 0; i < n; i++ {
		if err := tr.Put(nil, fmt.Sprintf("key-%03d", i), Item{Ver: int64(i + 1), Val: []byte("a value of 20 bytes.")}, 1); err != nil {
			tb.Fatal(err)
		}
	}
	if depth := treeDepth(tb, tr); depth != 1 {
		tb.Fatalf("%d entries built %d levels, want a single leaf", n, depth)
	}
	checkpointCycle(tb, pg)
	evictAll(pg)
	return tr, fmt.Sprintf("key-%03d", n/2)
}

// missGet evicts tr's one page and reads key back through the codec.
func missGet(tb testing.TB, tr *Tree, key string) {
	evictAll(tr.pg)
	if _, ok, err := tr.Get(nil, key); err != nil || !ok {
		tb.Fatalf("cold get %q: found %v, %v", key, ok, err)
	}
}

// TestMissAllocsIndependentOfCellCount pins what a pool miss allocates:
// the node, its cell slice, one copy of the page's cell area and the
// frame — the same count for a leaf of 8 entries and one of 64.
func TestMissAllocsIndependentOfCellCount(t *testing.T) {
	var got [2]float64
	for i, n := range []int{8, 64} {
		tr, key := coldLeaf(t, n)
		got[i] = testing.AllocsPerRun(100, func() { missGet(t, tr, key) })
	}
	if got[0] != got[1] || got[1] > 4 {
		t.Errorf("a cold get allocates %v objects on an 8-entry leaf and %v on a 64-entry one, want the same count and at most 4", got[0], got[1])
	}
}

// BenchmarkPagerMiss is the page-decode microbench: a cold Get of a 4 KB
// leaf holding 64 entries, so every iteration is one pool miss.
func BenchmarkPagerMiss(b *testing.B) {
	tr, key := coldLeaf(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		missGet(b, tr, key)
	}
}
