package db

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"xssd/internal/btree"
	"xssd/internal/pcie"
	"xssd/internal/sim"
	"xssd/internal/villars"
)

// countingStore counts what the pager asks of its store: single page
// reads, batches, and the pages the batches read. It has no ReadBatch of
// its own, so over a MemStore the pager sees a store that cannot batch.
type countingStore struct {
	btree.PageStore
	reads, batches, batched int
}

func (s *countingStore) Read(p *sim.Proc, slot int64, buf []byte) error {
	s.reads++
	return s.PageStore.Read(p, slot, buf)
}

// batchingStore is a countingStore over a DeviceStore, with its ReadBatch.
type batchingStore struct {
	*countingStore
	dev *btree.DeviceStore
}

func (s batchingStore) ReadBatch(p *sim.Proc, slots []int64, bufs [][]byte) error {
	s.batches++
	s.batched += len(slots)
	return s.dev.ReadBatch(p, slots, bufs)
}

// fetchRows is the row count of the cold engines below: 2 000 rows of
// about 110 bytes fill a dozen or more leaves under one branch root, on
// the 16 KiB pages of a default device and on 4 KiB memory pages alike.
const fetchRows = 2000

func fetchKey(i int) string { return fmt.Sprintf("k%04d", i) }

func fetchVal(i int) []byte { return []byte(fmt.Sprintf("%-100d", i)) }

// coldPagedEngine loads fetchRows rows into a paged engine over store,
// checkpoints it onto the store, and reopens the table on a fresh pager
// there, as recovery does: every page, root included, is cold. It drives
// the checkpoint on a process of env.
func coldPagedEngine(t *testing.T, env *sim.Env, store btree.PageStore) *Engine {
	t.Helper()
	pg := btree.NewPager(store, btree.Config{PoolPages: 64})
	eng := NewPaged(env, nil, pg)
	for i := 0; i < fetchRows; i++ {
		eng.LoadRow("t", fetchKey(i), fetchVal(i))
	}
	var ck Checkpoint
	var err error
	runOn(t, env, func(p *sim.Proc) {
		if ck, err = eng.BeginCheckpoint(p); err != nil {
			return
		}
		if err = pg.WriteImages(p, ck.Snap.Images); err == nil {
			err = pg.Sync(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	pg.CommitCheckpoint(ck.Snap)
	cold := btree.NewPager(store, btree.Config{PoolPages: 64})
	cold.Restore(ck.Snap.NextID, ck.Snap.Free, ck.Snap.Parity)
	reopened := NewPaged(env, nil, cold)
	reopened.OpenPagedTable("t", ck.Tables["t"])
	return reopened
}

// runOn runs fn on a new process of env and waits for it to finish.
func runOn(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	env.Go("test", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	env.RunUntil(env.Now() + time.Second)
	if !done {
		t.Fatal("process did not finish")
	}
}

// deviceStore is a batching countingStore over a DeviceStore on a fresh
// device of env.
func deviceStore(t *testing.T, env *sim.Env) batchingStore {
	t.Helper()
	const hostMem, slots = 1 << 20, 512
	dev := villars.New(env, villars.DefaultConfig("dev"), pcie.NewHostMemory(hostMem))
	base, err := dev.AllocLBARange(slots)
	if err != nil {
		t.Fatal(err)
	}
	ds := btree.NewDeviceStore(dev, base, slots, hostMem-btree.DeviceScratchSize(dev.BlockSize()))
	return batchingStore{&countingStore{PageStore: ds}, ds}
}

// coldLeafRows returns one row from each of k distinct cold leaves of a
// table whose branches are resident, then a second row of the first leaf.
func coldLeafRows(t *testing.T, tab Table, k int) []int {
	t.Helper()
	tree := tab.t.rows.(*btree.Tree)
	var rows []int
	var ids []uint64
	for i := 0; i < fetchRows && len(rows) < k; i++ {
		id, ok := tree.ColdPage(fetchKey(i))
		if ok && !slices.Contains(ids, id) {
			rows, ids = append(rows, i), append(ids, id)
		}
	}
	if len(rows) < k {
		t.Fatalf("%d rows span %d cold leaves, want %d", fetchRows, len(rows), k)
	}
	if id, _ := tree.ColdPage(fetchKey(rows[0] + 1)); id != ids[0] {
		t.Fatalf("row %d is alone in leaf %d", rows[0], ids[0])
	}
	return append(rows, rows[0]+1)
}

// TestFetchReadsWantedRowsInOneBatch: on a paged engine over a
// DeviceStore whose branch is resident and whose leaves are cold, Want on
// rows in k cold leaves (a second row of one of them, and a row on a
// resident path, record nothing new) followed by Fetch issues exactly one
// batch of k page reads and no single read, and the transaction's reads
// of those rows then all hit. On a row map the same calls record nothing
// and the reads return the same rows.
func TestFetchReadsWantedRowsInOneBatch(t *testing.T) {
	const k = 5
	t.Run("paged", func(t *testing.T) {
		env := sim.NewEnv(1)
		t.Cleanup(env.Close)
		store := deviceStore(t, env)
		eng := coldPagedEngine(t, env, store)
		tab := eng.Table("t")
		runOn(t, env, func(p *sim.Proc) {
			eng.ReadIn(p, "t", fetchKey(fetchRows-1)) // the root, and one leaf
		})
		rows := append(coldLeafRows(t, tab, k), fetchRows-1)
		runOn(t, env, func(p *sim.Proc) {
			tx := eng.BeginP(p)
			reads := store.reads
			for _, i := range rows {
				tx.Want(tab, fetchKey(i))
			}
			tx.Fetch()
			if store.batches != 1 || store.batched != k || store.reads != reads {
				t.Errorf("Want on %d rows in %d cold leaves, then Fetch: %d batches of %d pages and %d single reads, want 1 batch of %d and none",
					len(rows), k, store.batches, store.batched, store.reads-reads, k)
			}
			for _, i := range rows {
				if v, ok := tx.GetIn(tab, fetchKey(i)); !ok || string(v) != string(fetchVal(i)) {
					t.Errorf("GetIn(%s) = %q, %v", fetchKey(i), v, ok)
				}
			}
			if store.batches != 1 || store.reads != reads {
				t.Errorf("reads after Fetch missed: %d more single reads, %d batches", store.reads-reads, store.batches)
			}
			tx.Abort()
		})
	})
	t.Run("rowmap", func(t *testing.T) {
		eng := New(sim.NewEnv(1), nil)
		tab := eng.Table("t")
		for i := 0; i < fetchRows; i++ {
			eng.LoadRow("t", fetchKey(i), fetchVal(i))
		}
		tx := eng.Begin()
		for i := 0; i < fetchRows; i += fetchRows / k {
			tx.Want(tab, fetchKey(i))
		}
		if len(tx.want) != 0 || len(tx.reads) != 0 {
			t.Errorf("Want on a row map recorded %d pages and %d reads", len(tx.want), len(tx.reads))
		}
		tx.Fetch()
		for i := 0; i < fetchRows; i += fetchRows / k {
			if v, ok := tx.GetIn(tab, fetchKey(i)); !ok || string(v) != string(fetchVal(i)) {
				t.Errorf("GetIn(%s) = %q, %v", fetchKey(i), v, ok)
			}
		}
		if len(tx.reads) != k {
			t.Errorf("%d reads recorded, want %d", len(tx.reads), k)
		}
	})
}

// TestWantFetchAllocs: once warm, Want and Fetch allocate nothing on
// either engine. On a paged engine over a DeviceStore, the first round
// reads the wanted leaves in (which the test checks: every path is then
// resident) and the repeats find nothing cold. Over a store without
// ReadBatch the pages stay cold, so every Want records an id, and Fetch
// hands them on and forgets them into the same scratch.
func TestWantFetchAllocs(t *testing.T) {
	const k = 5
	measure := func(t *testing.T, eng *Engine, tx *Tx, keys []string) {
		t.Helper()
		tab := eng.Table("t")
		round := func() {
			for _, key := range keys {
				tx.Want(tab, key)
			}
			tx.Fetch()
		}
		round()
		if n := testing.AllocsPerRun(100, round); n != 0 {
			t.Errorf("Want on %d rows and Fetch: %v allocs, want 0", len(keys), n)
		}
		if len(tx.want) != 0 {
			t.Errorf("Fetch left %d wanted pages", len(tx.want))
		}
	}
	t.Run("paged", func(t *testing.T) {
		env := sim.NewEnv(1)
		t.Cleanup(env.Close)
		store := deviceStore(t, env)
		eng := coldPagedEngine(t, env, store)
		runOn(t, env, func(p *sim.Proc) { eng.ReadIn(p, "t", fetchKey(0)) })
		var keys []string
		for _, i := range coldLeafRows(t, eng.Table("t"), k) {
			keys = append(keys, fetchKey(i))
		}
		runOn(t, env, func(p *sim.Proc) {
			tx := eng.BeginP(p)
			measure(t, eng, tx, keys)
			for _, key := range keys {
				if id, cold := eng.Table("t").t.rows.(*btree.Tree).ColdPage(key); cold {
					t.Errorf("%s: page %d still cold after Fetch", key, id)
				}
			}
			tx.Abort()
		})
	})
	t.Run("paged without batch", func(t *testing.T) {
		env := sim.NewEnv(1)
		t.Cleanup(env.Close)
		store := &countingStore{PageStore: btree.NewMemStore(4096, 1<<22)}
		eng := coldPagedEngine(t, env, store)
		tx := eng.Begin()
		keys := []string{fetchKey(0), fetchKey(fetchRows / 2), fetchKey(fetchRows - 1)}
		tx.Want(eng.Table("t"), keys[0])
		if len(tx.want) != 1 {
			t.Fatalf("Want on a cold root recorded %d pages, want 1", len(tx.want))
		}
		measure(t, eng, tx, keys)
		if store.reads != 0 {
			t.Errorf("Fetch over a store without ReadBatch read %d pages", store.reads)
		}
	})
	t.Run("rowmap", func(t *testing.T) {
		eng := New(sim.NewEnv(1), nil)
		for i := 0; i < fetchRows; i++ {
			eng.LoadRow("t", fetchKey(i), fetchVal(i))
		}
		measure(t, eng, eng.Begin(), []string{fetchKey(0), fetchKey(1), fetchKey(2)})
	})
}
