package tpcc

import (
	"testing"
	"time"

	"xssd/internal/db"
	"xssd/internal/shard"
	"xssd/internal/sim"
)

// TPC-C consistency conditions (spec clause 3.3.2), checked after a mixed
// workload. These catch logic errors in the transaction profiles that
// simple row-count tests miss. Every condition runs twice: on one engine
// driven by classic terminals, and on a 2-shard, 4-warehouse cluster
// driven by sharded terminals at a cross-shard-heavy remote mix, where it
// is checked on each shard's engine over the warehouses that shard owns.

// owned is one engine and the warehouses whose rows it holds.
type owned struct {
	eng        *db.Engine
	warehouses []int
}

// eachWarehouse runs the mix (txns transactions per terminal) classic and
// sharded, as subtests, and calls check for every warehouse with the
// engine that owns it.
func eachWarehouse(t *testing.T, txns int, check func(t *testing.T, cfg Config, eng *db.Engine, w int)) {
	for _, run := range []struct {
		name string
		run  func(t *testing.T, txns int) ([]owned, Config)
	}{
		{"classic", runMixedWorkload},
		{"sharded", runShardedWorkload},
	} {
		t.Run(run.name, func(t *testing.T) {
			parts, cfg := run.run(t, txns)
			for _, part := range parts {
				for _, w := range part.warehouses {
					check(t, cfg, part.eng, w)
				}
			}
		})
	}
}

func runMixedWorkload(t *testing.T, txns int) ([]owned, Config) {
	t.Helper()
	env := sim.NewEnv(17)
	eng := db.New(env, nil) // volatile engine: consistency is in-memory
	cfg := smallConfig()
	Load(eng, cfg, 1)
	for w := 0; w < 2; w++ {
		w := w
		env.Go("terminal", func(p *sim.Proc) {
			client := NewClient(eng, cfg, int64(50+w), w%cfg.Warehouses+1)
			for i := 0; i < txns; i++ {
				p.Sleep(26 * time.Microsecond) // per-txn compute budget
				client.RunMix(p)
			}
		})
	}
	env.RunUntil(time.Minute)
	return []owned{{eng, []int{1, 2}}}, cfg
}

// runShardedWorkload runs one sharded terminal per warehouse, on its
// shard's Env, with 5% remote order lines and 50% remote payments.
func runShardedWorkload(t *testing.T, txns int) ([]owned, Config) {
	t.Helper()
	const shards, warehouses = 2, 4
	cfg := smallConfig()
	cfg.Warehouses = warehouses
	cl, err := shard.New(shard.Config{
		Shards: shards, Warehouses: warehouses, Seed: 17,
		Load: func(eng *db.Engine, id int) {
			LoadWarehouses(eng, cfg, 1, func(w int) bool { return shard.OwnerOf(w, shards, warehouses) == id })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Build()
	var bootErr error
	finished := 0 // every shard shares member 0, so terminals may count here
	cl.Shard(0).Env().Go("boot", func(p *sim.Proc) {
		if bootErr = cl.Boot(p); bootErr != nil {
			return
		}
		for w := 1; w <= warehouses; w++ {
			client := NewShardedClient(cl, cfg, int64(50+w), w, RemoteMix{LinePct: 5, PayPct: 50})
			cl.Shard(cl.ShardOf(w)).Env().Go("terminal", func(p *sim.Proc) {
				for i := 0; i < txns; i++ {
					p.Sleep(26 * time.Microsecond)
					client.RunMix(p)
				}
				finished++
			})
		}
		cl.Release()
	})
	for step := 0; finished < warehouses && step < 1000; step++ {
		cl.Group().RunUntil(cl.Group().Now() + 10*time.Millisecond)
	}
	if bootErr != nil || finished < warehouses {
		t.Fatalf("cluster run: boot error %v, %d of %d terminals finished", bootErr, finished, warehouses)
	}
	// Let every participant hear its decision before the engines are read.
	cl.Group().RunUntil(cl.Group().Now() + 50*time.Millisecond)
	parts := make([]owned, shards)
	for w := 1; w <= warehouses; w++ {
		id := cl.ShardOf(w)
		parts[id].eng = cl.Shard(id).Engine()
		parts[id].warehouses = append(parts[id].warehouses, w)
	}
	return parts, cfg
}

// Condition 1-ish: for every district, NextOID-1 is the highest order id
// present and the highest new-order id, and every order id below NextOID
// exists.
func TestConsistencyDistrictNextOID(t *testing.T) {
	eachWarehouse(t, 150, func(t *testing.T, cfg Config, eng *db.Engine, w int) {
		for d := 1; d <= cfg.Districts; d++ {
			dRow, ok := eng.Read(TDistrict, DKey(w, d))
			if !ok {
				t.Fatalf("missing district %d:%d", w, d)
			}
			dist := DecodeDistrict(dRow)
			for oid := 1; oid < int(dist.NextOID); oid++ {
				if _, ok := eng.Read(TOrder, string(appendOKey(nil, w, d, oid))); !ok {
					t.Fatalf("district %d:%d: order %d missing below NextOID %d", w, d, oid, dist.NextOID)
				}
			}
			if _, ok := eng.Read(TOrder, string(appendOKey(nil, w, d, int(dist.NextOID)))); ok {
				t.Fatalf("district %d:%d: order exists at NextOID %d", w, d, dist.NextOID)
			}
			if _, ok := eng.Read(TNewOrder, string(appendNOKey(nil, w, d, int(dist.NextOID)))); ok {
				t.Fatalf("district %d:%d: new-order row at NextOID %d", w, d, dist.NextOID)
			}
			if dist.NextDelivery > dist.NextOID {
				t.Fatalf("district %d:%d: delivery pointer %d beyond NextOID %d", w, d, dist.NextDelivery, dist.NextOID)
			}
		}
	})
}

// Condition 2-ish: every order has exactly OLCnt order lines, numbered
// 1..OLCnt, and delivered orders have delivered lines.
func TestConsistencyOrderLines(t *testing.T) {
	eachWarehouse(t, 150, func(t *testing.T, cfg Config, eng *db.Engine, w int) {
		for d := 1; d <= cfg.Districts; d++ {
			dRow, _ := eng.Read(TDistrict, DKey(w, d))
			dist := DecodeDistrict(dRow)
			for oid := 1; oid < int(dist.NextOID); oid++ {
				oRow, _ := eng.Read(TOrder, string(appendOKey(nil, w, d, oid)))
				order := DecodeOrder(oRow)
				if order.OLCnt < 5 || order.OLCnt > 15 {
					t.Fatalf("order %d:%d:%d has %d lines", w, d, oid, order.OLCnt)
				}
				for ln := 1; ln <= int(order.OLCnt); ln++ {
					olRow, ok := eng.Read(TOrderLine, string(appendOLKey(nil, w, d, oid, ln)))
					if !ok {
						t.Fatalf("order %d:%d:%d missing line %d", w, d, oid, ln)
					}
					ol := DecodeOrderLine(olRow)
					if order.Carrier != 0 && ol.DeliveryD == 0 {
						t.Fatalf("delivered order %d:%d:%d has undelivered line %d", w, d, oid, ln)
					}
					if order.Carrier == 0 && ol.DeliveryD != 0 {
						t.Fatalf("undelivered order %d:%d:%d has delivered line %d", w, d, oid, ln)
					}
				}
				if _, ok := eng.Read(TOrderLine, string(appendOLKey(nil, w, d, oid, int(order.OLCnt)+1))); ok {
					t.Fatalf("order %d:%d:%d has extra line", w, d, oid)
				}
			}
		}
	})
}

// Condition 3-ish: a new_order row exists exactly for undelivered orders
// in [NextDelivery, NextOID).
func TestConsistencyNewOrderRows(t *testing.T) {
	eachWarehouse(t, 150, func(t *testing.T, cfg Config, eng *db.Engine, w int) {
		for d := 1; d <= cfg.Districts; d++ {
			dRow, _ := eng.Read(TDistrict, DKey(w, d))
			dist := DecodeDistrict(dRow)
			for oid := 1; oid < int(dist.NextOID); oid++ {
				_, hasNO := eng.Read(TNewOrder, string(appendNOKey(nil, w, d, oid)))
				if int64(oid) < dist.NextDelivery && hasNO {
					t.Fatalf("delivered order %d:%d:%d still in new_order", w, d, oid)
				}
				if int64(oid) >= dist.NextDelivery && !hasNO {
					t.Fatalf("pending order %d:%d:%d missing from new_order", w, d, oid)
				}
			}
		}
	})
}

// Money conservation: warehouse YTD equals the sum of its districts' YTD
// (all payments add to both), and every payment appears in the history of
// the warehouse that took it — the home warehouse, also for a payment
// whose customer lives on another shard.
func TestConsistencyPaymentAccounting(t *testing.T) {
	eachWarehouse(t, 200, func(t *testing.T, cfg Config, eng *db.Engine, w int) {
		wRow, _ := eng.Read(TWarehouse, WKey(w))
		wh := DecodeWarehouse(wRow)
		var districtSum, historySum int64
		for d := 1; d <= cfg.Districts; d++ {
			dRow, _ := eng.Read(TDistrict, DKey(w, d))
			districtSum += DecodeDistrict(dRow).YTD
			for txid := int64(1); txid < 100000; txid++ {
				if hRow, ok := eng.Read(THistory, string(appendHKey(nil, w, d, txid))); ok {
					historySum += DecodeHistory(hRow).Amount
				}
			}
		}
		if wh.YTD != districtSum {
			t.Fatalf("warehouse %d YTD %d != district sum %d", w, wh.YTD, districtSum)
		}
		if historySum != wh.YTD {
			t.Fatalf("warehouse %d history sum %d != YTD %d", w, historySum, wh.YTD)
		}
	})
}

// The customer name index always points at existing customers.
func TestConsistencyNameIndex(t *testing.T) {
	eachWarehouse(t, 50, func(t *testing.T, cfg Config, eng *db.Engine, w int) {
		checked := 0
		for d := 1; d <= cfg.Districts; d++ {
			for num := 0; num < 1000; num++ {
				idxRow, ok := eng.Read(TCustIdx, CIdxKey(w, d, LastName(num)))
				if !ok {
					continue
				}
				for _, cid := range decodeIDList(nil, idxRow) {
					cRow, ok := eng.Read(TCustomer, CKey(w, d, int(cid)))
					if !ok {
						t.Fatalf("index names missing customer %d:%d:%d", w, d, cid)
					}
					if DecodeCustomer(cRow).Last != LastName(num) {
						t.Fatalf("index/customer last-name mismatch at %d:%d:%d", w, d, cid)
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Fatalf("warehouse %d: name index empty", w)
		}
	})
}
