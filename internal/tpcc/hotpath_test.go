package tpcc

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"

	"xssd/internal/btree"
	"xssd/internal/db"
	"xssd/internal/sim"
	"xssd/internal/wal"
)

// warmTerminal loads a row-map engine with no log — nothing but db and
// tpcc allocates — and runs enough of the mix that the engine's recycled
// transaction sets have their capacity and every profile has orders to
// read. run is called on the terminal's process.
func warmTerminal(tb testing.TB, run func(p *sim.Proc, c *Client)) {
	env := sim.NewEnv(1)
	cfg := smallConfig()
	eng := db.New(env, nil)
	Load(eng, cfg, 1)
	client := NewClient(eng, cfg, 7, 1)
	done := false
	env.Go("terminal", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			if _, err := client.RunMix(p); err != nil {
				tb.Errorf("warm-up transaction %d: %v", i, err)
			}
		}
		run(p, client)
		done = true
	})
	env.RunUntil(time.Minute)
	if !done {
		tb.Fatal("terminal did not finish")
	}
}

// TestTxnAllocations pins, per profile, what one transaction allocates in
// db and tpcc together: one slice per row written (its encoded value) and
// nothing for any key; a read-only profile allocates nothing. The terminal
// begins every transaction in a Tx it owns and builds every key in its
// scratch, the engine's sets copy key bytes into a buffer they recycle,
// and the row map copies a new row's key into its arena, whose chunks
// amortize to nothing per transaction. The counts are means over a
// fixed-seed run of each profile, floored by AllocsPerRun (New-Order draws
// 5 to 15 lines, Stock-Level walks whatever the last 20 orders hold), so
// they move only when the code allocates differently. With an owned string
// per written key they were New-Order 44, Payment 8 and Delivery 106.
func TestTxnAllocations(t *testing.T) {
	want := [numTxTypes]struct {
		runs   int
		allocs float64
	}{
		NewOrderTx:    {200, 21},
		PaymentTx:     {200, 4},
		OrderStatusTx: {200, 0}, // walks back up to 49 orders for the customer's latest
		DeliveryTx:    {10, 51}, // few runs: each consumes four districts' oldest new-order
		StockLevelTx:  {200, 0},
	}
	warmTerminal(t, func(p *sim.Proc, c *Client) {
		for ty, w := range want {
			got := testing.AllocsPerRun(w.runs, func() {
				if err := c.RunOne(p, TxType(ty)); err != nil {
					t.Errorf("%v: %v", TxType(ty), err)
				}
			})
			if got != w.allocs {
				t.Errorf("%v: %v allocs per transaction, want %v", TxType(ty), got, w.allocs)
			}
		}
	})
}

// BenchmarkTxnMix is the db/tpcc line of the per-layer microbenchmarks:
// the standard mix against a row-map engine with no log, so ns/op and
// allocs/op are the engine's and the terminal's alone.
func BenchmarkTxnMix(b *testing.B) {
	warmTerminal(b, func(p *sim.Proc, c *Client) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.RunMix(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// redoRows lists the rows a redo payload installs, in db's write-set
// encoding: [nOps u16] then per op [flags u8][tableLen u8][table]
// [keyLen u16][key][valLen u32][val]; flags&1 marks a delete.
func redoRows(payload []byte) (rows [][2]string) {
	n := int(binary.LittleEndian.Uint16(payload))
	payload = payload[2:]
	for i := 0; i < n; i++ {
		del, tl := payload[0]&1 != 0, int(payload[1])
		table := string(payload[2 : 2+tl])
		payload = payload[2+tl:]
		kl := int(binary.LittleEndian.Uint16(payload))
		key := string(payload[2 : 2+kl])
		payload = payload[2+kl:]
		payload = payload[4+int(binary.LittleEndian.Uint32(payload)):]
		if !del {
			rows = append(rows, [2]string{table, key})
		}
	}
	return rows
}

// loadedRows lists every row Load installs for cfg (at most 1000
// customers per district, so customer c carries LastName(c-1)).
func loadedRows(cfg Config) (rows [][2]string) {
	for i := 1; i <= cfg.Items; i++ {
		rows = append(rows, [2]string{TItem, IKey(i)})
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		rows = append(rows, [2]string{TWarehouse, WKey(w)})
		for i := 1; i <= cfg.Items; i++ {
			rows = append(rows, [2]string{TStock, SKey(w, i)})
		}
		for d := 1; d <= cfg.Districts; d++ {
			rows = append(rows, [2]string{TDistrict, DKey(w, d)})
			for c := 1; c <= cfg.CustomersPerDistrict; c++ {
				rows = append(rows, [2]string{TCustomer, CKey(w, d, c)}, [2]string{TCustIdx, CIdxKey(w, d, LastName(c-1))})
			}
		}
	}
	return rows
}

// TestRowBytesNeverChange holds the contract row decoding rests on: the
// bytes db.Tx.GetIn hands out are the installed value itself and are never
// written again — a decoded string is a view into them. Every value is
// checksummed when it is installed (the load, then each commit's write
// set, found through the redo stream), the slice is kept, and after a
// 2000-transaction mix each one must still carry its checksum: replaced
// values too, since a transaction that read a row before its replacement
// may still be decoding the old one.
func TestRowBytesNeverChange(t *testing.T) {
	engines := []struct {
		name string
		mk   func(*sim.Env, *wal.Log) *db.Engine
	}{
		{"rowmap", db.New},
		{"paged", func(env *sim.Env, log *wal.Log) *db.Engine {
			// A pool this small evicts: rows come back through page decode.
			return db.NewPaged(env, log, btree.NewPager(btree.NewMemStore(1024, 1<<20), btree.Config{PoolPages: 16}))
		}},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			cfg := smallConfig()
			var stream []byte
			eng := e.mk(env, wal.NewLog(env, &captureSink{out: &stream}, wal.Config{GroupBytes: 1, GroupTimeout: time.Microsecond}))
			Load(eng, cfg, 1)
			client := NewClient(eng, cfg, 7, 1)

			type held struct {
				table, key string
				val        []byte
				sum        uint32
			}
			var installed []held
			done := false
			env.Go("terminal", func(p *sim.Proc) {
				hold := func(rows [][2]string) {
					for _, r := range rows {
						if val, ok := eng.ReadIn(p, r[0], r[1]); ok {
							installed = append(installed, held{r[0], r[1], val, crc32.ChecksumIEEE(val)})
						}
					}
				}
				loaded := loadedRows(cfg)
				hold(loaded)
				if len(installed) != len(loaded) {
					t.Errorf("found %d of the %d loaded rows", len(installed), len(loaded))
				}
				off := 0
				for i := 0; i < 2000; i++ {
					if _, err := client.RunMix(p); err != nil {
						t.Errorf("transaction %d: %v", i, err)
					}
					records, n := wal.Frame(stream[off:], int64(off))
					for _, rec := range records {
						hold(redoRows(rec.Payload))
					}
					off += n
				}
				done = true
			})
			env.RunUntil(time.Minute)
			if !done {
				t.Fatal("terminal did not finish")
			}
			if commits, _ := eng.Stats(); len(installed) < int(commits) {
				t.Fatalf("held %d values over %d commits: the redo stream was not followed", len(installed), commits)
			}
			for _, h := range installed {
				if crc32.ChecksumIEEE(h.val) != h.sum {
					t.Errorf("%s/%s: an installed value changed after it was installed", h.table, h.key)
				}
			}
		})
	}
}
