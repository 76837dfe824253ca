package ckpt

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"xssd/internal/btree"
	"xssd/internal/db"
	"xssd/internal/sim"
	"xssd/internal/wal"
)

// storeWindow is the number of page writes a device store keeps in
// flight per gate hold: a failure between windows leaves the earlier
// windows written and the later ones not.
const storeWindow = 8

// errInjected is the write failure flakyStore injects.
var errInjected = fmt.Errorf("%w: injected write failure", btree.ErrStore)

// flakyStore is a memory page store that behaves like a device one for
// the abort path. Every read, single or batched, yields on a process, so
// checkpoint writes and commits interleave with it. WriteBatch writes one
// window at a time, yielding between windows, and in a random share of
// checkpoints stops at a random window boundary and fails, leaving the
// windows before it written.
type flakyStore struct {
	*btree.MemStore
	rng                    *rand.Rand
	failed, batches, reads int
}

const flakyLatency = 20 * time.Microsecond

// Read and ReadBatch fill their buffers after the yield, as a device
// store's DMA completes last: the pager decodes a read's buffer as soon as
// the call returns.
func (s *flakyStore) Read(p *sim.Proc, slot int64, buf []byte) error {
	s.reads++
	if p != nil {
		p.Sleep(flakyLatency)
	}
	return s.MemStore.Read(p, slot, buf)
}

func (s *flakyStore) ReadBatch(p *sim.Proc, slots []int64, bufs [][]byte) error {
	s.batches++
	if p != nil {
		p.Sleep(flakyLatency)
	}
	for i, slot := range slots {
		if err := s.MemStore.Read(p, slot, bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

func (s *flakyStore) WriteBatch(p *sim.Proc, slots []int64, images [][]byte) error {
	windows := (len(slots) + storeWindow - 1) / storeWindow
	stop := windows // the window the write fails at; windows: it does not
	if windows > 0 && s.rng.Intn(2) == 0 {
		stop = s.rng.Intn(windows)
	}
	for w := 0; w < windows; w++ {
		if w == stop {
			s.failed++
			return errInjected
		}
		end := min((w+1)*storeWindow, len(slots))
		if err := s.MemStore.WriteBatch(p, slots[w*storeWindow:end], images[w*storeWindow:end]); err != nil {
			return err
		}
		p.Sleep(flakyLatency)
	}
	return nil
}

// TestQuickAbortedCheckpointWritesNeverCorruptReads is a property over a
// paged engine whose checkpoints fail their page writes at random window
// boundaries (ROADMAP item 21(a)). Two terminals commit multi-row
// transactions over a pool of 8 frames, so commits fault cold leaves in
// batches and reads fault them one at a time, while the checkpoint
// manager runs, aborts and retries. A failed write leaves slots holding
// images of a checkpoint that never committed; no read may serve one, so
// no fetch, single or batched, may meet ErrCorrupt (it would end the run
// in db.Engine.fault). Recovery from the last committed checkpoint plus
// the log tail must then match the live fingerprint.
func TestQuickAbortedCheckpointWritesNeverCorruptReads(t *testing.T) {
	var aborted, completed, failed, batches int64
	prop := func(seed int64) (ok bool) {
		rng := rand.New(rand.NewSource(seed))
		env := sim.NewEnv(seed)
		defer env.Close()
		defer func() {
			if r := recover(); r != nil {
				t.Logf("seed %d: %v", seed, r)
				ok = false
			}
		}()
		sink := &recordingSink{}
		log := wal.NewLog(env, sink, wal.Config{GroupBytes: 4 << 10, GroupTimeout: 200 * time.Microsecond})
		store := &flakyStore{MemStore: btree.NewMemStore(testPageSize, 1<<20), rng: rand.New(rand.NewSource(seed + 1))}
		pg := btree.NewPager(store, btree.Config{PoolPages: 8})
		eng := db.NewPaged(env, log, pg)
		kv := eng.Table("kv")
		m := NewManager(eng, log, Config{Interval: 300 * time.Microsecond})
		env.Go("ckpt", m.Run)

		const keys, txns = 400, 150
		val := func() []byte { return []byte(fmt.Sprintf("%0*d", 10+rng.Intn(50), rng.Int63())) }
		// Load outside the checkpoints' reach, so the first one has the
		// whole table to write.
		env.Go("load", func(p *sim.Proc) {
			for i := 0; i < keys; i += 20 {
				tx := eng.BeginP(p)
				for j := i; j < i+20; j++ {
					tx.PutOwnedIn(kv, fmt.Sprintf("k%04d", j), val())
				}
				if err := tx.Commit(p); err != nil {
					t.Errorf("seed %d: load: %v", seed, err)
					return
				}
			}
			running := 2
			for c := 0; c < 2; c++ {
				env.Go(fmt.Sprintf("terminal-%d", c), func(p *sim.Proc) {
					for i := 0; i < txns; i++ {
						tx := eng.BeginP(p)
						tx.GetIn(kv, fmt.Sprintf("k%04d", rng.Intn(keys)))
						for w := 2 + rng.Intn(4); w > 0; w-- {
							tx.PutOwnedIn(kv, fmt.Sprintf("k%04d", rng.Intn(keys)), val())
						}
						if err := tx.Commit(p); err != nil && !errors.Is(err, db.ErrConflict) {
							t.Errorf("seed %d: commit: %v", seed, err)
							return
						}
						p.Sleep(time.Duration(rng.Intn(60)) * time.Microsecond)
					}
					if running--; running == 0 {
						m.Stop()
					}
				})
			}
		})
		env.RunUntil(2 * time.Second)
		if m.Err() != nil {
			t.Logf("seed %d: checkpoint manager stopped: %v", seed, m.Err())
			return false
		}
		aborted += m.Aborted()
		completed += m.Completed()
		failed += int64(store.failed)
		batches += int64(store.batches)

		live := eng.FingerprintIn(nil)
		rec, st, err := Recover(nil, sim.NewEnv(1), store, 64, wal.DecodeAll(sink.data), nil)
		if err != nil {
			t.Logf("seed %d: recover: %v", seed, err)
			return false
		}
		if !st.Found {
			t.Logf("seed %d: no checkpoint committed (%d aborted)", seed, m.Aborted())
			return false
		}
		if got := rec.FingerprintIn(nil); got != live {
			t.Logf("seed %d: recovered fingerprint %#x, live %#x (%d completed, %d aborted checkpoints)",
				seed, got, live, m.Completed(), m.Aborted())
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCountScale: 0.2, Rand: rand.New(rand.NewSource(21))}
	if testing.Short() {
		cfg.MaxCountScale = 0.05
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d checkpoints completed, %d aborted (%d on an injected write failure); %d batched reads",
		completed, aborted, failed, batches)
	if aborted == 0 || failed == 0 || completed == 0 || batches == 0 {
		t.Errorf("the property never met its case: %d checkpoints completed, %d aborted, %d injected write failures, %d batched reads",
			completed, aborted, failed, batches)
	}
}
