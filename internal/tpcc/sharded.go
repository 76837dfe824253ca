// The sharded terminal: TPC-C over a warehouse-partitioned cluster.
//
// A ShardedClient is homed on one warehouse (hence one shard) exactly
// like a classic terminal. The three always-local profiles (OrderStatus,
// Delivery, StockLevel) run unchanged on the home engine; NewOrder and
// Payment run on shard.Tx, where the spec's remote-warehouse choices
// (supply warehouses for order lines, the customer's warehouse for
// payments) route by ownership — a "remote" warehouse on the home shard
// is still a purely local transaction, one on another shard makes the
// commit a cross-shard 2PC.
package tpcc

import (
	"errors"

	"xssd/internal/db"
	"xssd/internal/shard"
	"xssd/internal/sim"
)

// RemoteMix sets how often NewOrder and Payment reach beyond the home
// warehouse. The TPC-C spec values are {LinePct: 1, PayPct: 15}; the
// shard benchmarks sweep it to dial cross-shard pressure.
type RemoteMix struct {
	// LinePct is the percent chance each order line's supply warehouse
	// is remote (spec: 1).
	LinePct int
	// PayPct is the percent chance a payment goes through a remote
	// customer warehouse (spec: 15).
	PayPct int
}

// SpecMix is the standard remote mix (1% remote order lines, 15% remote
// payments).
func SpecMix() RemoteMix { return RemoteMix{LinePct: 1, PayPct: 15} }

// ShardedClient is one terminal against a shard.Cluster. All methods
// must run on the home shard's Env.
type ShardedClient struct {
	cl   *shard.Cluster
	home *shard.Shard
	mix  RemoteMix
	// inner handles the always-local profiles and owns the counters and
	// the (single, shared) rng — the sharded profiles draw from the same
	// stream, so the terminal stays one deterministic sequence.
	inner *Client
}

// NewShardedClient creates a terminal homed on warehouse homeWID of cl.
func NewShardedClient(cl *shard.Cluster, cfg Config, seed int64, homeWID int, mix RemoteMix) *ShardedClient {
	home := cl.Shard(cl.ShardOf(homeWID))
	return &ShardedClient{cl: cl, home: home, mix: mix, inner: newTerminal(home.Engine(), cfg, seed, homeWID)}
}

// Home returns the terminal's home shard.
func (c *ShardedClient) Home() *shard.Shard { return c.home }

// Counts returns per-type committed counts plus total aborts and retries.
func (c *ShardedClient) Counts() (byType [5]int64, aborts, retries int64) {
	return c.inner.Counts()
}

// RunMix draws from the standard mix and executes one transaction,
// retrying OCC conflicts up to three times. Unreachable-peer failures
// (shard.ErrUnavailable) abort without retry — the terminal's loop
// decides whether to keep going.
func (c *ShardedClient) RunMix(p *sim.Proc) (TxType, error) {
	t := c.inner.PickType()
	switch t {
	case OrderStatusTx, DeliveryTx, StockLevelTx:
		return t, c.inner.RunOne(p, t)
	}
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		if t == NewOrderTx {
			err = c.newOrder(p)
		} else {
			err = c.payment(p)
		}
		if err == db.ErrConflict {
			c.inner.retries++
			continue
		}
		break
	}
	switch err {
	case nil, ErrRollback:
		c.inner.counts[t]++
		return t, nil
	default:
		c.inner.aborts++
		return t, err
	}
}

// newOrder is the distributed clause-2.4 profile: order lines whose
// supply warehouse lives on another shard read and update that shard's
// stock inside the same transaction.
func (c *ShardedClient) newOrder(p *sim.Proc) error {
	in := c.inner
	w := in.home
	d := in.rng.Intn(in.cfg.Districts) + 1
	cid := in.randCID()
	olCnt := in.rng.Intn(11) + 5
	rollback := in.rng.Intn(100) == 0

	tx := c.home.Begin()
	abort := func(err error) error {
		tx.Abort()
		return err
	}
	wRow, ok, err := tx.GetW(p, w, TWarehouse, WKey(w))
	if err != nil || !ok {
		return abort(orErr(err, "tpcc: missing warehouse"))
	}
	wh := DecodeWarehouse(wRow)
	dKey := DKey(w, d)
	dRow, ok, err := tx.GetW(p, w, TDistrict, dKey)
	if err != nil || !ok {
		return abort(orErr(err, "tpcc: missing district"))
	}
	dist := DecodeDistrict(dRow)
	oid := int(dist.NextOID)
	dist.NextOID++
	tx.PutW(w, TDistrict, dKey, dist.Encode())

	cRow, ok, err := tx.GetW(p, w, TCustomer, CKey(w, d, cid))
	if err != nil || !ok {
		return abort(orErr(err, "tpcc: missing customer"))
	}
	cust := DecodeCustomer(cRow)

	allLocal := true
	var total int64
	for ln := 1; ln <= olCnt; ln++ {
		iid := in.randIID()
		if rollback && ln == olCnt {
			iid = in.cfg.Items + 1
		}
		supplyW := w
		if in.cfg.Warehouses > 1 && in.rng.Intn(100) < c.mix.LinePct {
			for supplyW == w {
				supplyW = in.rng.Intn(in.cfg.Warehouses) + 1
			}
			allLocal = false
		}
		// The item catalog replicates to every shard; read it at home.
		iRow, ok, err := tx.GetW(p, w, TItem, IKey(iid))
		if err != nil {
			return abort(err)
		}
		if !ok {
			return abort(ErrRollback)
		}
		item := DecodeItem(iRow)
		sKey := SKey(supplyW, iid)
		sRow, ok, err := tx.GetW(p, supplyW, TStock, sKey)
		if err != nil || !ok {
			return abort(orErr(err, "tpcc: missing stock"))
		}
		stock := DecodeStock(sRow)
		qty := int64(in.rng.Intn(10) + 1)
		if stock.Qty >= qty+10 {
			stock.Qty -= qty
		} else {
			stock.Qty += 91 - qty
		}
		stock.YTD += qty
		stock.OrderCnt++
		if supplyW != w {
			stock.RemoteCnt++
		}
		tx.PutW(supplyW, TStock, sKey, stock.Encode())
		amount := qty * item.Price
		total += amount
		tx.PutW(w, TOrderLine, OLKey(w, d, oid, ln), OrderLine{
			IID: int64(iid), SupplyW: int64(supplyW), Qty: qty,
			Amount: amount, DistInfo: stock.Dist,
		}.Encode())
	}
	_ = total * (10000 - cust.Discount) / 10000 * (10000 + wh.Tax + dist.Tax) / 10000

	tx.PutW(w, TOrder, OKey(w, d, oid), Order{
		CID: int64(cid), EntryD: int64(p.Now()), OLCnt: int64(olCnt), AllLocal: allLocal,
	}.Encode())
	tx.PutW(w, TNewOrder, NOKey(w, d, oid), []byte{1})
	return tx.Commit(p)
}

// payment is the distributed clause-2.5 profile: a remote customer's
// balance lives on that customer's shard, while warehouse/district YTD
// and the history row stay home.
func (c *ShardedClient) payment(p *sim.Proc) error {
	in := c.inner
	w := in.home
	d := in.rng.Intn(in.cfg.Districts) + 1
	cw, cd := w, d
	if in.cfg.Warehouses > 1 && in.rng.Intn(100) < c.mix.PayPct {
		for cw == w {
			cw = in.rng.Intn(in.cfg.Warehouses) + 1
		}
		cd = in.rng.Intn(in.cfg.Districts) + 1
	}
	amount := int64(in.rng.Intn(499900) + 100)

	tx := c.home.Begin()
	abort := func(err error) error {
		tx.Abort()
		return err
	}
	wKey := WKey(w)
	wRow, ok, err := tx.GetW(p, w, TWarehouse, wKey)
	if err != nil || !ok {
		return abort(orErr(err, "tpcc: missing warehouse"))
	}
	wh := DecodeWarehouse(wRow)
	wh.YTD += amount
	tx.PutW(w, TWarehouse, wKey, wh.Encode())

	dKey := DKey(w, d)
	dRow, ok, err := tx.GetW(p, w, TDistrict, dKey)
	if err != nil || !ok {
		return abort(orErr(err, "tpcc: missing district"))
	}
	dist := DecodeDistrict(dRow)
	dist.YTD += amount
	tx.PutW(w, TDistrict, dKey, dist.Encode())

	cid, err := c.selectCustomer(p, tx, cw, cd)
	if err != nil {
		return abort(err)
	}
	cKey := CKey(cw, cd, cid)
	cRow, ok, err := tx.GetW(p, cw, TCustomer, cKey)
	if err != nil || !ok {
		return abort(orErr(err, "tpcc: missing customer"))
	}
	cust := DecodeCustomer(cRow)
	cust.Balance -= amount
	cust.YTDPayment += amount
	cust.PaymentCnt++
	if cust.Credit == "BC" {
		cust.Data = randomFiller(in.rng, in.cfg.FillerLen)
	}
	tx.PutW(cw, TCustomer, cKey, cust.Encode())
	tx.PutW(w, THistory, HKey(w, d, tx.ID()), History{
		CID: int64(cid), Amount: amount, Date: int64(p.Now()),
		Data: wh.Name + " " + dist.Name,
	}.Encode())
	return tx.Commit(p)
}

// selectCustomer mirrors the classic 60/40 by-name/by-id selection,
// reading the name index on the customer's own shard.
func (c *ShardedClient) selectCustomer(p *sim.Proc, tx *shard.Tx, w, d int) (int, error) {
	in := c.inner
	if in.rng.Intn(100) < 60 {
		last := LastName(nuRand(in.rng, 255, cLast, 0, 999))
		idxRow, ok, err := tx.GetW(p, w, TCustIdx, CIdxKey(w, d, last))
		if err != nil {
			return 0, err
		}
		if !ok {
			return in.randCID(), nil
		}
		in.ids = decodeIDList(in.ids[:0], idxRow)
		if len(in.ids) == 0 {
			return in.randCID(), nil
		}
		return int(in.ids[len(in.ids)/2]), nil
	}
	return in.randCID(), nil
}

// orErr returns err if set, otherwise a fresh error with msg (a missing
// row on a reachable shard is a data bug, not an availability problem).
func orErr(err error, msg string) error {
	if err != nil {
		return err
	}
	return errors.New(msg)
}
