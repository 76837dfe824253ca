package tpcc

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"xssd/internal/btree"
	"xssd/internal/ckpt"
	"xssd/internal/db"
	"xssd/internal/nand"
	"xssd/internal/pcie"
	"xssd/internal/sim"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// pagedRun is what one terminal's run leaves behind: the redo payloads in
// log order with their clock fields masked (maskClocks), an FNV-1a hash
// of the log's bytes as written, the fingerprint of the rows with the
// clock fields masked, the per-type committed counts, and the page
// batches the store read.
type pagedRun struct {
	payloads [][]byte
	log      uint64
	fp       uint64
	counts   [5]int64
	batches  int
}

// batchCounter counts the batches a DeviceStore reads.
type batchCounter struct {
	*btree.DeviceStore
	batches int
}

func (s *batchCounter) ReadBatch(p *sim.Proc, slots []int64, bufs [][]byte) error {
	s.batches++
	return s.DeviceStore.ReadBatch(p, slots, bufs)
}

// TestPagedTerminalMatchesRowMap runs one terminal through 500 mixed
// transactions at a fixed seed twice: on a row-map engine, and on a paged
// engine over a DeviceStore whose pool holds a tenth of the tree, with a
// checkpoint every 100 transactions so the pool can evict what the
// terminal dirtied. Every profile reads through WantW/Fetch rounds on the
// paged engine and through no-ops on the row map, so the two runs must
// commit the same transactions of each type, log byte-identical redo
// payloads in the same order — which pins the write set, its order and
// the terminal's rng draws — and end with the same rows.
//
// The only bytes allowed to differ are the three clock fields a profile
// stamps from the virtual clock (an order's entry date, a history row's
// date, an order line's delivery date): the paged run's reads take device
// time, so its clock reads later. Both runs mask them the same way before
// comparing.
//
// Both runs move together if a profile changes its writes or its draws,
// so the row map's log is pinned as well, clock fields and all: its hash
// is the one the profiles logged before they read in rounds.
func TestPagedTerminalMatchesRowMap(t *testing.T) {
	const txns, seed = 500, 29
	cfg := DefaultConfig()
	run := func(paged bool) pagedRun {
		env := sim.NewEnv(1)
		defer env.Close()
		var stream []byte
		log := wal.NewLog(env, &captureSink{out: &stream}, wal.Config{GroupBytes: 1, GroupTimeout: time.Microsecond})
		eng := db.New(env, log)
		var store *batchCounter
		var mgr *ckpt.Manager
		if paged {
			store = pagedDeviceStore(t, env)
			eng = db.NewPaged(env, log, btree.NewPager(store, btree.Config{PoolPages: 40}))
			mgr = ckpt.NewManager(eng, log, ckpt.Config{})
		}
		Load(eng, cfg, 1)
		client := NewClient(eng, cfg, seed, 1)
		var r pagedRun
		done := false
		env.Go("terminal", func(p *sim.Proc) {
			defer func() { done = true }()
			for i := 0; i < txns; i++ {
				if paged && i%100 == 0 {
					if _, err := mgr.RunOnce(p); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := client.RunMix(p); err != nil {
					t.Errorf("transaction %d: %v", i, err)
				}
			}
			h := fnv.New64a()
			h.Write(stream)
			r.log = h.Sum64()
			for _, rec := range wal.DecodeAll(stream) {
				if !db.IsControlPayload(rec.Payload) { // the paged run's checkpoint records
					r.payloads = append(r.payloads, maskClocks(rec.Payload))
				}
			}
			// Rewrite every clock-stamped row with its masked value, so the
			// fingerprint compares everything else.
			tx := eng.BeginP(p)
			for _, pl := range r.payloads {
				eachOp(pl, func(table, key string, val []byte, del bool) {
					if !del && clockTable(table) {
						tx.PutOwnedIn(eng.Table(table), key, val)
					}
				})
			}
			if err := tx.Commit(p); err != nil {
				t.Error(err)
			}
			r.fp = eng.FingerprintIn(p)
		})
		env.RunUntil(time.Hour)
		if !done {
			t.Fatal("terminal did not finish")
		}
		r.counts, _, _ = client.Counts()
		if store != nil {
			r.batches = store.batches
		}
		return r
	}
	rows, pages := run(false), run(true)
	if rows.log != 0x30d83fdf43b3752b {
		t.Errorf("row-map log %016x, want 30d83fdf43b3752b (a profile's writes, their order or its draws changed)", rows.log)
	}
	if rows.counts != pages.counts {
		t.Errorf("committed per type: row map %v, paged %v", rows.counts, pages.counts)
	}
	if len(rows.payloads) != len(pages.payloads) {
		t.Fatalf("row map logged %d records, paged %d", len(rows.payloads), len(pages.payloads))
	}
	for i := range rows.payloads {
		if !bytes.Equal(rows.payloads[i], pages.payloads[i]) {
			t.Fatalf("redo record %d differs between the row map and the paged engine", i)
		}
	}
	if rows.fp != pages.fp {
		t.Errorf("fingerprints: row map %016x, paged %016x", rows.fp, pages.fp)
	}
	for ty, n := range rows.counts {
		if n == 0 {
			t.Errorf("no %v committed", TxType(ty))
		}
	}
	if pages.batches == 0 {
		t.Error("the paged run read no page batch: its pool never went cold")
	}
	t.Logf("%d records, %v committed, %d page batches", len(rows.payloads), rows.counts, pages.batches)
}

// pagedDeviceStore is a DeviceStore of 4 KiB pages on a fresh device of
// env, the page size of the paged benchmark.
func pagedDeviceStore(t *testing.T, env *sim.Env) *batchCounter {
	t.Helper()
	const hostMem, slots = 1 << 20, 4096
	dcfg := villars.DefaultConfig("dev")
	dcfg.Geometry = nand.Geometry{Channels: 4, WaysPerChan: 4, BlocksPerDie: 20, PagesPerBlock: 64, PageSize: 4 << 10}
	dev := villars.New(env, dcfg, pcie.NewHostMemory(hostMem))
	base, err := dev.AllocLBARange(slots)
	if err != nil {
		t.Fatal(err)
	}
	return &batchCounter{DeviceStore: btree.NewDeviceStore(dev, base, slots, hostMem-btree.DeviceScratchSize(dev.BlockSize()))}
}

// clockTable reports whether table's rows carry a clock field.
func clockTable(table string) bool {
	return table == TOrder || table == THistory || table == TOrderLine
}

// eachOp calls fn for every op of a redo payload, in order.
func eachOp(payload []byte, fn func(table, key string, val []byte, del bool)) {
	n := int(binary.LittleEndian.Uint16(payload))
	payload = payload[2:]
	for i := 0; i < n; i++ {
		del, tl := payload[0]&1 != 0, int(payload[1])
		table := string(payload[2 : 2+tl])
		payload = payload[2+tl:]
		kl := int(binary.LittleEndian.Uint16(payload))
		key := string(payload[2 : 2+kl])
		payload = payload[2+kl:]
		vl := int(binary.LittleEndian.Uint32(payload))
		fn(table, key, payload[4:4+vl], del)
		payload = payload[4+vl:]
	}
}

// maskClocks returns a redo payload in the same format with its clock
// fields masked: an order's entry date and a history row's date become 0,
// and a delivery date that is set becomes 1, so whether an order line was
// delivered still shows.
func maskClocks(payload []byte) []byte {
	out := append([]byte(nil), payload[:2]...)
	eachOp(payload, func(table, key string, val []byte, del bool) {
		flags := byte(0)
		if del {
			flags = 1
		}
		if !del {
			switch table {
			case TOrder:
				o := DecodeOrder(val)
				o.EntryD = 0
				val = o.Encode()
			case THistory:
				h := DecodeHistory(val)
				h.Date = 0
				val = h.Encode()
			case TOrderLine:
				ol := DecodeOrderLine(val)
				ol.DeliveryD = min(ol.DeliveryD, 1)
				val = ol.Encode()
			}
		}
		out = append(out, flags, byte(len(table)))
		out = append(out, table...)
		out = binary.LittleEndian.AppendUint16(out, uint16(len(key)))
		out = append(out, key...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(val)))
		out = append(out, val...)
	})
	return out
}
