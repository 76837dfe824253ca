package tpcc

import (
	"testing"
	"time"

	"xssd/internal/db"
	"xssd/internal/sim"
)

// TPC-C consistency conditions (spec clause 3.3.2), checked after a mixed
// workload. These catch logic errors in the transaction profiles that
// simple row-count tests miss.

func runMixedWorkload(t *testing.T, txns int) (*db.Engine, Config) {
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
	return eng, cfg
}

// Condition 1-ish: for every district, NextOID-1 equals the highest order
// id present, and every order id below NextOID exists.
func TestConsistencyDistrictNextOID(t *testing.T) {
	eng, cfg := runMixedWorkload(t, 150)
	for w := 1; w <= cfg.Warehouses; w++ {
		for d := 1; d <= cfg.Districts; d++ {
			dRow, ok := eng.Read(TDistrict, DKey(w, d))
			if !ok {
				t.Fatalf("missing district %d:%d", w, d)
			}
			dist := DecodeDistrict(dRow)
			for oid := 1; oid < int(dist.NextOID); oid++ {
				if _, ok := eng.Read(TOrder, OKey(w, d, oid)); !ok {
					t.Fatalf("district %d:%d: order %d missing below NextOID %d", w, d, oid, dist.NextOID)
				}
			}
			if _, ok := eng.Read(TOrder, OKey(w, d, int(dist.NextOID))); ok {
				t.Fatalf("district %d:%d: order exists at NextOID %d", w, d, dist.NextOID)
			}
			if dist.NextDelivery > dist.NextOID {
				t.Fatalf("district %d:%d: delivery pointer %d beyond NextOID %d", w, d, dist.NextDelivery, dist.NextOID)
			}
		}
	}
}

// Condition 2-ish: every order has exactly OLCnt order lines, numbered
// 1..OLCnt, and delivered orders have delivered lines.
func TestConsistencyOrderLines(t *testing.T) {
	eng, cfg := runMixedWorkload(t, 150)
	for w := 1; w <= cfg.Warehouses; w++ {
		for d := 1; d <= cfg.Districts; d++ {
			dRow, _ := eng.Read(TDistrict, DKey(w, d))
			dist := DecodeDistrict(dRow)
			for oid := 1; oid < int(dist.NextOID); oid++ {
				oRow, _ := eng.Read(TOrder, OKey(w, d, oid))
				order := DecodeOrder(oRow)
				if order.OLCnt < 5 || order.OLCnt > 15 {
					t.Fatalf("order %d:%d:%d has %d lines", w, d, oid, order.OLCnt)
				}
				for ln := 1; ln <= int(order.OLCnt); ln++ {
					olRow, ok := eng.Read(TOrderLine, OLKey(w, d, oid, ln))
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
				if _, ok := eng.Read(TOrderLine, OLKey(w, d, oid, int(order.OLCnt)+1)); ok {
					t.Fatalf("order %d:%d:%d has extra line", w, d, oid)
				}
			}
		}
	}
}

// Condition 3-ish: a new_order row exists exactly for undelivered orders
// in [NextDelivery, NextOID).
func TestConsistencyNewOrderRows(t *testing.T) {
	eng, cfg := runMixedWorkload(t, 150)
	for w := 1; w <= cfg.Warehouses; w++ {
		for d := 1; d <= cfg.Districts; d++ {
			dRow, _ := eng.Read(TDistrict, DKey(w, d))
			dist := DecodeDistrict(dRow)
			for oid := 1; oid < int(dist.NextOID); oid++ {
				_, hasNO := eng.Read(TNewOrder, NOKey(w, d, oid))
				if int64(oid) < dist.NextDelivery && hasNO {
					t.Fatalf("delivered order %d:%d:%d still in new_order", w, d, oid)
				}
				if int64(oid) >= dist.NextDelivery && !hasNO {
					t.Fatalf("pending order %d:%d:%d missing from new_order", w, d, oid)
				}
			}
		}
	}
}

// Money conservation: warehouse YTD equals the sum of its districts' YTD
// (all payments add to both), and every payment appears in history.
func TestConsistencyPaymentAccounting(t *testing.T) {
	eng, cfg := runMixedWorkload(t, 200)
	var historyTotal int64
	for w := 1; w <= cfg.Warehouses; w++ {
		wRow, _ := eng.Read(TWarehouse, WKey(w))
		wh := DecodeWarehouse(wRow)
		var districtSum int64
		for d := 1; d <= cfg.Districts; d++ {
			dRow, _ := eng.Read(TDistrict, DKey(w, d))
			districtSum += DecodeDistrict(dRow).YTD
		}
		if wh.YTD != districtSum {
			t.Fatalf("warehouse %d YTD %d != district sum %d", w, wh.YTD, districtSum)
		}
		historyTotal += wh.YTD
	}
	// History rows carry every payment amount; their sum must match.
	var historySum int64
	for w := 1; w <= cfg.Warehouses; w++ {
		for d := 1; d <= cfg.Districts; d++ {
			for txid := int64(1); txid < 100000; txid++ {
				hRow, ok := eng.Read(THistory, HKey(w, d, txid))
				if !ok {
					continue
				}
				historySum += DecodeHistory(hRow).Amount
			}
		}
	}
	if historySum != historyTotal {
		t.Fatalf("history sum %d != warehouse YTD total %d", historySum, historyTotal)
	}
}

// The customer name index always points at existing customers.
func TestConsistencyNameIndex(t *testing.T) {
	eng, cfg := runMixedWorkload(t, 50)
	checked := 0
	for w := 1; w <= cfg.Warehouses; w++ {
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
	}
	if checked == 0 {
		t.Fatal("name index empty")
	}
}
