package main

import (
	"bytes"
	"hash/fnv"
	"os"
	"sort"
	"testing"

	"xssd/internal/btree"
	"xssd/internal/ckpt"
	"xssd/internal/db"
	"xssd/internal/sim"
	"xssd/internal/tpcc"
	"xssd/internal/wal"
)

// TestSpecMatchesBenchmarkJSON keeps the checked-in contract and the
// metric tables in step: BENCHMARK.json is exactly what -spec prints.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkSpec()) {
		t.Fatal("BENCHMARK.json differs from `go run ./cmd/stackbench -spec`; regenerate it")
	}
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

func equalNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloads runs every workload at 1/20 of its window with two
// repetitions, the second one traced. runWorkload already fails the run when a
// virtual metric differs between repetitions or a crash/recovery check
// fails; on top of that the emitted metric names must be exactly the
// declared ones, and the layers tpcc_local bypasses must read as bypassed.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name != "tpcc_local" {
				t.Skip("short: only tpcc_local")
			}
			cfg := config{seed: 42, scale: 0.05, workers: 2, outDir: t.TempDir()}
			r, err := runWorkload(w, cfg, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range r.problems {
				t.Error(p)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("failed %d of %d attempted operations", r.failed, r.attempted)
			}
			if got, want := r.endToEnd.sortedNames(), sorted(defNames(endToEnd)); !equalNames(got, want) {
				t.Errorf("end-to-end metrics emitted %v, declared %v", got, want)
			}
			if got, want := r.perLayer.sortedNames(), sorted(defNames(perLayer)); !equalNames(got, want) {
				t.Errorf("per-layer metrics emitted %v, declared %v", got, want)
			}
			if w.name == "tpcc_local" {
				if v := r.perLayer["ftl.waf"]; v != 1 {
					t.Errorf("tpcc_local: ftl.waf = %v, want exactly 1 (sequential destage ring only)", v)
				}
				if v := r.perLayer["transport.mirrored_bytes"]; v != 0 {
					t.Errorf("tpcc_local: transport.mirrored_bytes = %v, want 0 (no replica)", v)
				}
			}
		})
	}
}

// TestGroupWorkersDoNotChangeResults checks the determinism contract where
// the benchmark depends on it: the multi-Env workloads must report the
// same virtual metrics under one and under two group workers.
func TestGroupWorkersDoNotChangeResults(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	for _, name := range []string{"tpcc_repl", "tpcc_shard4"} {
		w, _ := findWorkload(name)
		var runs [2]*repResult
		for i, workers := range []int{1, 2} {
			r, err := runRep(w, config{seed: 42, scale: 0.05, workers: workers, outDir: t.TempDir()}, false)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = r
		}
		for _, m := range runs[0].virt.sortedNames() {
			if runs[0].virt[m] != runs[1].virt[m] {
				t.Errorf("%s: %s = %v with 1 worker, %v with 2", name, m, runs[0].virt[m], runs[1].virt[m])
			}
		}
	}
}

// TestSortedLoadGivesOneTreeLayout pins the reason loadSorted exists: the
// page images of a freshly loaded paged engine must not depend on map
// iteration order.
func TestSortedLoadGivesOneTreeLayout(t *testing.T) {
	var first uint64
	for i := 0; i < 4; i++ {
		eng := db.NewPaged(sim.NewEnv(1), nil, btree.NewPager(btree.NewMemStore(4096, 1<<30), btree.Config{PoolPages: 1 << 20}))
		if err := loadSorted(eng, tpcc.DefaultConfig(), loadSeed(42)); err != nil {
			t.Fatal(err)
		}
		ck, err := eng.BeginCheckpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, img := range ck.Snap.Images {
			h.Write(img.Data)
		}
		if i == 0 {
			first = h.Sum64()
		} else if h.Sum64() != first {
			t.Fatalf("load %d produced a different tree layout", i)
		}
	}
}

// TestReplayFracFollowsRecover pins recovery_replay_frac to the program: the
// replay rule's answer for the crash that happened must be what ckpt.Recover
// measured, and a corrupt checkpoint record is an error, not a stale cut.
func TestReplayFracFollowsRecover(t *testing.T) {
	redo := func(lsn int64) wal.Record { return wal.Record{LSN: lsn, Payload: []byte{1, 0, 0}} }
	mark := func(lsn, start int64) wal.Record {
		return wal.Record{LSN: lsn, Payload: ckpt.Record{StartLSN: start, Tables: map[string]uint64{}}.Encode()}
	}
	// Crashes after records 0, 1, 3, 4 replay 1, 2, 2, 3 of 1, 2, 3, 4 redo
	// records: the checkpoint at LSN 25 cuts at LSN 10.
	log := []wal.Record{redo(0), redo(10), mark(25, 10), redo(30), redo(40)}
	got, err := pooledReplayFrac(log, ckpt.Stats{Found: true, StartLSN: 10, Tail: 3, Total: 4})
	if want := 8.0 / 10.0; err != nil || got != want {
		t.Fatalf("pooledReplayFrac = %v, %v; want %v", got, err, want)
	}
	if _, err := pooledReplayFrac(log, ckpt.Stats{Found: true, Tail: 4, Total: 4}); err == nil {
		t.Error("a recovery that replayed the whole log went unnoticed")
	}
	bad := mark(25, 10)
	bad.Payload[len(bad.Payload)-1] ^= 0xff
	if _, err := pooledReplayFrac([]wal.Record{redo(0), bad}, ckpt.Stats{Tail: 1, Total: 1}); err == nil {
		t.Error("a corrupt checkpoint record went unnoticed")
	}
}
