package btree

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/sim"
	"xssd/internal/villars"
)

// batchStore is a MemStore with ReadBatch. It counts single reads and
// the slots it reads in batches, and a batch read on a process sleeps for
// yield after copying its images out, so other processes act while the
// batch is out.
type batchStore struct {
	*MemStore
	reads, batches, batched int64
	yield                   time.Duration
}

func (s *batchStore) Read(p *sim.Proc, slot int64, buf []byte) error {
	s.reads++
	return s.MemStore.Read(p, slot, buf)
}

func (s *batchStore) ReadBatch(p *sim.Proc, slots []int64, bufs [][]byte) error {
	s.batches++
	s.batched += int64(len(slots))
	for i, slot := range slots {
		if err := s.MemStore.Read(p, slot, bufs[i]); err != nil {
			return err
		}
	}
	if p != nil && s.yield > 0 {
		p.Sleep(s.yield)
	}
	return nil
}

// evictLeaves drops every clean, unpinned leaf frame and keeps the
// branches: the pool a commit meets when its rows' index pages are hot
// and their leaves went cold.
func evictLeaves(pg *Pager) {
	for f := pg.tail; f != nil; {
		prev := f.prev
		if f.n.kind == kindLeaf && !f.dirty && f.pins == 0 {
			pg.unlink(f)
			delete(pg.frames, f.id)
			pg.resident--
		}
		f = prev
	}
}

// dropFrame removes id's clean, unpinned frame from the pool. It runs on
// a simulated process, so it reports with Errorf.
func dropFrame(tb testing.TB, pg *Pager, id uint64) {
	tb.Helper()
	f := pg.frames[id]
	if f == nil || f.dirty || f.pins != 0 {
		tb.Errorf("page %d: frame %v is not a clean, unpinned resident", id, f)
		return
	}
	pg.unlink(f)
	delete(pg.frames, id)
	pg.resident--
}

// commitCheckpoint runs one whole checkpoint on a simulated process:
// checkpointCycle without its Fatalf, which must not run off the test's
// goroutine.
func commitCheckpoint(p *sim.Proc, pg *Pager) error {
	snap, err := pg.SnapshotCheckpoint()
	if err == nil {
		err = pg.WriteImages(p, snap.Images)
	}
	if err == nil {
		err = pg.Sync(p)
	}
	if err != nil {
		return err
	}
	pg.CommitCheckpoint(snap)
	return nil
}

// leafKeys returns one key from each of the first k distinct leaves of
// keys (sorted), found through ColdPage on a pool whose leaves are cold
// and whose branches are resident, with the leaf ids in the same order.
func leafKeys(tb testing.TB, tr *Tree, keys []string, k int) ([]string, []uint64) {
	tb.Helper()
	var out []string
	var ids []uint64
	for _, key := range keys {
		id, ok := tr.ColdPage(key)
		if !ok {
			tb.Fatalf("key %q: path fully resident after the leaves were evicted", key)
		}
		if f := tr.pg.frames[id]; f != nil {
			tb.Fatalf("ColdPage(%q) = %d, a resident page", key, id)
		}
		if !slices.Contains(ids, id) {
			out, ids = append(out, key), append(ids, id)
			if len(out) == k {
				return out, ids
			}
		}
	}
	tb.Fatalf("%d keys span fewer than %d leaves", len(keys), k)
	return nil, nil
}

// countingDevice counts the slots a DeviceStore reads, single or batched.
type countingDevice struct {
	*DeviceStore
	reads int64
}

func (s *countingDevice) Read(p *sim.Proc, slot int64, buf []byte) error {
	s.reads++
	return s.DeviceStore.Read(p, slot, buf)
}

func (s *countingDevice) ReadBatch(p *sim.Proc, slots []int64, bufs [][]byte) error {
	s.reads += int64(len(slots))
	return s.DeviceStore.ReadBatch(p, slots, bufs)
}

// TestPrefetchReadsColdLeavesTogether: over a DeviceStore, a write set
// whose keys land on k cold leaves under resident branches makes exactly
// k store reads when its cold pages are prefetched first — a repeated
// leaf is read once — and the whole write set takes less virtual time
// than the same puts missing one after another. The tree then matches a
// sorted-map oracle and holds its invariants.
func TestPrefetchReadsColdLeavesTogether(t *testing.T) {
	const k = 5
	env := sim.NewEnv(1)
	t.Cleanup(env.Close)
	const hostMem = 1 << 20
	dev := villars.New(env, villars.DefaultConfig("dev"), pcie.NewHostMemory(hostMem))
	const slots = 512
	base, err := dev.AllocLBARange(slots)
	if err != nil {
		t.Fatal(err)
	}
	store := &countingDevice{DeviceStore: NewDeviceStore(dev, base, slots, hostMem-DeviceScratchSize(dev.BlockSize()))}
	pg := NewPager(store, Config{PoolPages: 1024})
	tr := New(pg)
	oracle := map[string]Item{}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%05d", (i*7919)%2000)
		it := Item{Ver: int64(i + 1), Val: []byte(fmt.Sprintf("%-40d", i))}
		if err := tr.Put(nil, key, it, int64(i+1)); err != nil {
			t.Fatal(err)
		}
		oracle[key] = it
	}
	keys := oracleKeys(oracle)
	if depth := treeDepth(t, tr); depth < 2 {
		t.Fatalf("%d keys built %d levels, want a branch over leaves", len(keys), depth)
	}

	// run drives one step on a simulated process, reporting with Errorf.
	run := func(step func(p *sim.Proc) error) {
		t.Helper()
		done := false
		env.Go("writer", func(p *sim.Proc) {
			if err := step(p); err != nil {
				t.Error(err)
			}
			done = true
		})
		env.RunUntil(env.Now() + time.Second)
		if !done {
			t.Fatal("writer did not finish")
		}
	}
	checkpoint := func(p *sim.Proc) error {
		if err := commitCheckpoint(p, pg); err != nil {
			return err
		}
		evictLeaves(pg)
		return nil
	}
	run(checkpoint)
	// One key from each of k leaves, and the first leaf's second key.
	ws, _ := leafKeys(t, tr, keys, k)
	ws = append(ws, keys[1])
	lsn := int64(len(keys))
	put := func(p *sim.Proc, round int) error {
		for _, key := range ws {
			lsn++
			// Same-size values: no put shrinks its leaf and probes a
			// sibling for a merge.
			it := Item{Ver: lsn, Val: []byte(fmt.Sprintf("round %-34d", round))}
			if err := tr.Put(p, key, it, lsn); err != nil {
				return err
			}
			oracle[key] = it
		}
		return nil
	}

	var batchTime, seqTime time.Duration
	var batchReads, seqReads int64
	run(func(p *sim.Proc) error {
		ids := make([]uint64, 0, len(ws))
		for _, key := range ws {
			if id, ok := tr.ColdPage(key); ok {
				ids = append(ids, id)
			}
		}
		r0, t0 := store.reads, p.Now()
		if err := pg.Prefetch(p, ids); err != nil {
			return err
		}
		if err := put(p, 1); err != nil {
			return err
		}
		batchReads, batchTime = store.reads-r0, p.Now()-t0
		return checkpoint(p)
	})
	run(func(p *sim.Proc) error {
		r0, t0 := store.reads, p.Now()
		if err := put(p, 2); err != nil {
			return err
		}
		seqReads, seqTime = store.reads-r0, p.Now()-t0
		pg.pool = 1 << 20 // keep every page the walk below reads
		return tr.Scan(p, func(string, Item) bool { return true })
	})
	if batchReads != k || seqReads != k {
		t.Errorf("%d puts over %d cold leaves made %d store reads prefetched and %d one by one, want %d each",
			k+1, k, batchReads, seqReads, k)
	}
	if batchTime >= seqTime {
		t.Errorf("prefetched puts took %v, one-by-one misses %v: the batch did not overlap its reads", batchTime, seqTime)
	}
	t.Logf("%d cold leaves: %v prefetched, %v one by one", k, batchTime, seqTime)
	if err := compareWithOracle(tr, oracle); err != nil {
		t.Error(err)
	}
	if err := tr.CheckInvariants(nil); err != nil {
		t.Error(err)
	}
}

// recheckTree is a three-level tree on 256-byte pages over a batchStore
// whose batches yield, checkpointed, with every leaf cold and every
// branch resident.
func recheckTree(tb testing.TB) (*Tree, *Pager, *batchStore, []string) {
	tb.Helper()
	store := &batchStore{MemStore: NewMemStore(budgetPageSize, 1<<20), yield: 100 * time.Microsecond}
	pg := NewPager(store, Config{PoolPages: 1024})
	tr := New(pg)
	oracle := map[string]Item{}
	for i := 0; i < budgetKeys; i++ {
		key := budgetKey((i * 7) % budgetKeys)
		it := Item{Ver: int64(i + 1), Val: make([]byte, 20)}
		if err := tr.Put(nil, key, it, int64(i+1)); err != nil {
			tb.Fatal(err)
		}
		oracle[key] = it
	}
	checkpointCycle(tb, pg)
	evictLeaves(pg)
	return tr, pg, store, oracleKeys(oracle)
}

// TestPrefetchRechecksAfterTheBatch: a batch read yields, and what
// happened to its pages meanwhile decides what it installs. A page that
// another process faulted in keeps that frame; a page a snapshot
// captured keeps its captured image, whether the checkpoint is still out
// (the image is in pendingRewrite) or committed (the page's live slot
// moved); a freed page stays free. None is replaced by, or revived from,
// the image the batch read; an untouched page is installed unpinned.
func TestPrefetchRechecksAfterTheBatch(t *testing.T) {
	tr, pg, store, keys := recheckTree(t)
	_, ids := leafKeys(t, tr, keys, 5)
	installed, captured, committed, freed, untouched := ids[0], ids[1], ids[2], ids[3], ids[4]
	const lsn = 1 << 20 // past every lsn the build stamped

	// meddle runs while the batch is out.
	var other *frame
	meddle := func(p *sim.Proc) error {
		fetch := func(id uint64) (*frame, error) {
			f, err := pg.fetch(p, id)
			if err != nil {
				return nil, err
			}
			pg.unpin(f)
			return f, nil
		}
		var err error
		if other, err = fetch(installed); err != nil {
			return err
		}
		// A committed checkpoint moves committed's live slot.
		f, err := fetch(committed)
		if err != nil {
			return err
		}
		pg.markDirty(f, lsn)
		if err := commitCheckpoint(p, pg); err != nil {
			return err
		}
		dropFrame(t, pg, committed)
		// An open one leaves captured's image in pendingRewrite.
		if f, err = fetch(captured); err != nil {
			return err
		}
		pg.markDirty(f, lsn)
		if _, err := pg.SnapshotCheckpoint(); err != nil {
			return err
		}
		dropFrame(t, pg, captured)
		if f, err = fetch(freed); err != nil {
			return err
		}
		pg.free(f)
		return nil
	}

	env := sim.NewEnv(1)
	t.Cleanup(env.Close)
	done := false
	env.Go("batch", func(p *sim.Proc) {
		if err := pg.Prefetch(p, ids); err != nil {
			t.Errorf("prefetch: %v", err)
		}
		done = true
	})
	env.Go("other", func(p *sim.Proc) {
		p.Sleep(10 * time.Microsecond)
		if err := meddle(p); err != nil {
			t.Error(err)
		}
	})
	env.RunUntil(time.Second)
	if !done {
		t.Fatal("batch did not finish")
	}
	if store.batches != 1 || store.batched != 5 {
		t.Fatalf("store read %d slots in %d batches, want 5 in 1", store.batched, store.batches)
	}
	if f := pg.frames[installed]; f != other {
		t.Errorf("page %d: frame replaced by the batch's image", installed)
	}
	for _, id := range []uint64{captured, committed, freed} {
		if pg.frames[id] != nil {
			t.Errorf("page %d: installed from a stale or freed image", id)
		}
	}
	if _, ok := slices.BinarySearch(pg.freeIDs, freed); !ok {
		t.Errorf("page %d: no longer free", freed)
	}
	if f := pg.frames[untouched]; f == nil || f.pins != 0 || f.dirty || f.n.id != untouched {
		t.Errorf("page %d: frame %v, want a clean unpinned frame of that page", untouched, f)
	}
	reads := store.reads
	for _, id := range []uint64{captured, committed} {
		f, err := pg.fetch(nil, id)
		if err != nil {
			t.Fatalf("fetch %d: %v", id, err)
		}
		pg.unpin(f)
		if f.n.lsn != lsn {
			t.Errorf("page %d: fetched with recovery lsn %d, want the captured image's %d", id, f.n.lsn, lsn)
		}
	}
	if store.reads-reads != 1 {
		t.Errorf("fetching the captured and the committed page read %d slots, want 1 (the committed page's new slot)", store.reads-reads)
	}
}

// TestPrefetchAfterTwoCommitsInstallsNothing: two checkpoints that commit
// while a batch is out can move a page's live slot away and back, so a
// page read from the slot it is on again may still be stale; the batch
// installs none of its pages then.
func TestPrefetchAfterTwoCommitsInstallsNothing(t *testing.T) {
	tr, pg, _, keys := recheckTree(t)
	_, ids := leafKeys(t, tr, keys, 3)
	env := sim.NewEnv(1)
	t.Cleanup(env.Close)
	env.Go("batch", func(p *sim.Proc) {
		if err := pg.Prefetch(p, ids); err != nil {
			t.Errorf("prefetch: %v", err)
		}
	})
	env.Go("other", func(p *sim.Proc) {
		p.Sleep(10 * time.Microsecond)
		for range 2 {
			if err := commitCheckpoint(p, pg); err != nil {
				t.Errorf("checkpoint: %v", err)
			}
		}
	})
	env.RunUntil(time.Second)
	for _, id := range ids {
		if pg.frames[id] != nil {
			t.Errorf("page %d installed across two checkpoint commits", id)
		}
	}
}

// TestPrefetchAllocs pins what a batch costs beside
// TestMissAllocsIndependentOfCellCount: over a warm pool, finding a write
// set's cold pages and handing them to Prefetch allocates nothing, and a
// batch of k cold leaves allocates k times what one miss does.
func TestPrefetchAllocs(t *testing.T) {
	const k = 3
	tr, pg, _, keys := recheckTree(t)
	ws, ids := leafKeys(t, tr, keys, k)
	single := testing.AllocsPerRun(100, func() {
		evictLeaves(pg)
		if _, ok, err := tr.Get(nil, ws[0]); err != nil || !ok {
			t.Fatalf("cold get %q: found %v, %v", ws[0], ok, err)
		}
	})
	batch := testing.AllocsPerRun(100, func() {
		evictLeaves(pg)
		if err := pg.Prefetch(nil, ids); err != nil {
			t.Fatal(err)
		}
	})
	cold := make([]uint64, 0, len(ws))
	warm := testing.AllocsPerRun(100, func() {
		cold = cold[:0]
		for _, key := range ws {
			if id, ok := tr.ColdPage(key); ok {
				cold = append(cold, id)
			}
		}
		if err := pg.Prefetch(nil, cold); err != nil {
			t.Fatal(err)
		}
	})
	if single == 0 || batch != k*single {
		t.Errorf("a batch of %d cold leaves allocates %v objects, one miss %v: want %d times as many", k, batch, single, k)
	}
	if warm != 0 {
		t.Errorf("a warm write set's prefetch step allocates %v objects, want 0", warm)
	}
}

// TestFailedWriteImagesCountsNoWrites: the pager's writes counter counts
// images the store accepted; a batch it refused (and so wrote none of)
// leaves it where it was.
func TestFailedWriteImagesCountsNoWrites(t *testing.T) {
	pg := NewPager(NewMemStore(budgetPageSize, 4), Config{Scope: obs.For(sim.NewEnv(1)).Scope("pager")})
	tr := New(pg)
	page := make([]byte, budgetPageSize)
	if err := pg.WriteImages(nil, []PageImage{{ID: tr.Root(), Data: page}}); err != nil {
		t.Fatal(err)
	}
	if got := pg.mWrites.Value(); got != 1 {
		t.Fatalf("writes = %d after one accepted image, want 1", got)
	}
	if err := pg.WriteImages(nil, []PageImage{{ID: tr.Root(), Parity: 1, Data: page}, {ID: 2, Data: page}}); err == nil {
		t.Fatal("a batch past the store's last slot was accepted")
	}
	if got := pg.mWrites.Value(); got != 1 {
		t.Errorf("writes = %d after a refused batch, want it unchanged at 1", got)
	}
}
