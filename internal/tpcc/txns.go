package tpcc

import (
	"cmp"
	"errors"
	"math/rand"
	"unsafe"

	"xssd/internal/db"
	"xssd/internal/shard"
	"xssd/internal/sim"
)

// TxType identifies a TPC-C transaction profile.
type TxType int

// The five profiles.
const (
	NewOrderTx TxType = iota
	PaymentTx
	OrderStatusTx
	DeliveryTx
	StockLevelTx
	numTxTypes
)

// String implements fmt.Stringer.
func (t TxType) String() string {
	switch t {
	case NewOrderTx:
		return "NewOrder"
	case PaymentTx:
		return "Payment"
	case OrderStatusTx:
		return "OrderStatus"
	case DeliveryTx:
		return "Delivery"
	case StockLevelTx:
		return "StockLevel"
	}
	return "unknown"
}

// newOrderRow is every new-order row's value. The row is only a marker,
// and no one writes through an installed value (db.Tx.GetIn's contract),
// so every order shares this one slice.
var newOrderRow = []byte{1}

// ErrRollback is the intentional 1% NewOrder rollback (clause 2.4.1.4).
var ErrRollback = errors.New("tpcc: intentional user rollback")

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

// Client executes the TPC-C mix from one home warehouse terminal, against
// one engine (NewClient) or a shard cluster (NewShardedClient). Every
// profile is written once, over a rowTx that routes each row by the
// warehouse owning it.
type Client struct {
	cfg  Config
	eng  *db.Engine   // the home engine
	sh   *shard.Shard // the home shard; nil on a classic terminal
	ltx  db.Tx        // the classic terminal's transaction, begun anew each time
	stx  shard.Tx     // the sharded terminal's, likewise
	mix  RemoteMix
	rng  *rand.Rand
	home int

	counts  [numTxTypes]int64
	aborts  int64
	retries int64

	// lastLSN is the LSN the last transaction's acknowledgement waits on:
	// set by a classic commit, 0 for a read-only or rolled-back one and on
	// a sharded terminal, whose commit waits for itself.
	lastLSN int64

	// Resolved table handles on the home engine: every row access in the
	// transaction mix goes through these, skipping the engine's
	// per-access name lookup.
	tabs tableSet

	// Per-call scratch the terminal owns, cleared by the profile that
	// uses it: the customer ids of one name-index row, the item ids
	// Stock-Level has already counted, Delivery's districts with an order
	// to deliver, and the key of the row about to be read or written (tmp).
	ids  []int64
	seen map[int64]bool
	due  []dueOrder
	kb   []byte
}

// dueOrder is what Delivery's read rounds learn about one district's
// oldest undelivered order before its writes: the district row, the
// order id, whether the new-order row is still there, and the order row
// if it was read.
type dueOrder struct {
	d, oid int
	dist   District
	queued bool // the new-order row is there
	found  bool // the order row is there (read only when queued)
	order  Order
}

type tableSet struct {
	warehouse, district, customer, item, stock db.Table
	order, orderLine, newOrder, history        db.Table
	custIdx                                    db.Table
}

func resolveTables(eng *db.Engine) tableSet {
	return tableSet{
		warehouse: eng.Table(TWarehouse),
		district:  eng.Table(TDistrict),
		customer:  eng.Table(TCustomer),
		item:      eng.Table(TItem),
		stock:     eng.Table(TStock),
		order:     eng.Table(TOrder),
		orderLine: eng.Table(TOrderLine),
		newOrder:  eng.Table(TNewOrder),
		history:   eng.Table(THistory),
		custIdx:   eng.Table(TCustIdx),
	}
}

// rowTx is the transaction a profile runs on: *shard.Tx on a sharded
// terminal, localTx on a classic one. Every row names the warehouse that
// owns it, and every table is a handle resolved on the home engine. Keys
// follow db.Tx's contract: no method keeps a key once it returns — the
// write set copies a written row's key, and the store owns the keys it
// keeps — so every row is named with a view of a buffer the terminal
// reuses (tmp). A value handed to PutW is the row from then on and is
// never written again.
//
// WantW and Fetch group a profile's reads into rounds (db.Tx.Want): the
// rows a round names are read from the device in one batch. Naming a row
// reads nothing and draws nothing, so the write set, its order and the
// terminal's rng draws do not depend on the rounds. On a row map both do
// nothing.
type rowTx interface {
	GetW(p *sim.Proc, warehouse int, tab db.Table, key string) ([]byte, bool, error)
	PutW(warehouse int, tab db.Table, key string, val []byte)
	DeleteW(warehouse int, tab db.Table, key string)
	WantW(warehouse int, tab db.Table, key string)
	Fetch()
	ID() int64
	Abort()
}

// localTx is the classic terminal's rowTx: one engine owns every
// warehouse, so the routing argument plays no part and no read fails.
type localTx struct{ *db.Tx }

//xssd:hotpath
func (t localTx) GetW(_ *sim.Proc, _ int, tab db.Table, key string) ([]byte, bool, error) {
	v, ok := t.GetIn(tab, key)
	return v, ok, nil
}

//xssd:hotpath
func (t localTx) PutW(_ int, tab db.Table, key string, val []byte) { t.PutOwnedIn(tab, key, val) }

//xssd:hotpath
func (t localTx) DeleteW(_ int, tab db.Table, key string) { t.DeleteIn(tab, key) }

//xssd:hotpath
func (t localTx) WantW(_ int, tab db.Table, key string) { t.Want(tab, key) }

// NewClient creates a terminal bound to homeWID, drawing remote
// warehouses at SpecMix.
func NewClient(eng *db.Engine, cfg Config, seed int64, homeWID int) *Client {
	return newTerminal(eng, cfg, seed, homeWID, SpecMix())
}

// newTerminal builds the state every terminal has, classic or sharded.
func newTerminal(eng *db.Engine, cfg Config, seed int64, homeWID int, mix RemoteMix) *Client {
	return &Client{
		cfg: cfg, eng: eng, mix: mix, rng: rand.New(rand.NewSource(seed)), home: homeWID,
		tabs: resolveTables(eng), seen: map[int64]bool{},
	}
}

// Counts returns per-type committed counts plus total aborts and retries.
func (c *Client) Counts() (byType [5]int64, aborts, retries int64) {
	return c.counts, c.aborts, c.retries
}

// PickType draws a transaction type from the standard mix
// (45/43/4/4/4, clause 5.2.3).
func (c *Client) PickType() TxType {
	r := c.rng.Intn(100)
	switch {
	case r < 45:
		return NewOrderTx
	case r < 88:
		return PaymentTx
	case r < 92:
		return OrderStatusTx
	case r < 96:
		return DeliveryTx
	default:
		return StockLevelTx
	}
}

// RunOne executes one transaction of the given type, retrying OCC
// conflicts up to three times, and returns once it is acknowledged: a
// committed write transaction is durable by then. An intentional rollback
// counts as a completed NewOrder per the spec and returns nil; any other
// failure — a conflict that outlived its retries, an unreachable shard
// (shard.ErrUnavailable, never retried) — counts as an abort and is
// returned.
func (c *Client) RunOne(p *sim.Proc, t TxType) error {
	err := c.run(p, t)
	if log := c.eng.Log(); err == nil && c.lastLSN > 0 && log != nil {
		log.WaitDurable(p, c.lastLSN)
	}
	return err
}

// run is RunOne up to the acknowledgement: it leaves the LSN to wait on
// in lastLSN.
func (c *Client) run(p *sim.Proc, t TxType) error {
	c.lastLSN = 0
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		switch t {
		case NewOrderTx:
			err = c.newOrder(p)
		case PaymentTx:
			err = c.payment(p)
		case OrderStatusTx:
			err = c.orderStatus(p)
		case DeliveryTx:
			err = c.delivery(p)
		case StockLevelTx:
			err = c.stockLevel(p)
		}
		if err == db.ErrConflict {
			c.retries++
			continue
		}
		break
	}
	switch err {
	case nil, ErrRollback:
		c.counts[t]++
		return nil
	default:
		c.aborts++
		return err
	}
}

// RunMix draws from the mix and executes.
func (c *Client) RunMix(p *sim.Proc) (TxType, error) {
	t := c.PickType()
	return t, c.RunOne(p, t)
}

// begin starts a transaction on the terminal's process: on the home shard
// for a sharded terminal, on the engine for a classic one.
func (c *Client) begin(p *sim.Proc) rowTx {
	if c.sh != nil {
		return c.sh.BeginIn(&c.stx, p)
	}
	return localTx{c.eng.BeginIn(&c.ltx, p)}
}

// tmp returns a view of key, which the caller has just built into the
// terminal's scratch (an append form into c.kb[:0]), and keeps the
// scratch's capacity for the next key. The view is valid until that next
// key is built — long enough for a read and the write of the same row,
// since rowTx keeps no key.
//
//xssd:hotpath
func (c *Client) tmp(key []byte) string {
	c.kb = key
	return unsafe.String(unsafe.SliceData(key), len(key))
}

// commit finishes a transaction, the last step of every profile. A
// sharded transaction commits itself — locally, or through 2PC when it
// touched another shard — and waits for durability. A classic one commits
// without waiting and leaves its LSN in lastLSN for the caller to wait on.
func (c *Client) commit(p *sim.Proc, tx rowTx) error {
	if stx, ok := tx.(*shard.Tx); ok {
		return stx.Commit(p)
	}
	lsn, err := tx.(localTx).CommitAsync()
	c.lastLSN = lsn
	return err
}

// RunMixAsync executes one mixed transaction with pipelined commit: the
// write set is applied and appended to the log, and the LSN to wait on is
// returned instead of blocking (0 for read-only transactions and
// intentional rollbacks). Conflicts are retried like RunOne. A sharded
// terminal commits synchronously here and always returns 0.
func (c *Client) RunMixAsync(p *sim.Proc) (int64, error) {
	err := c.run(p, c.PickType())
	return c.lastLSN, err
}

// abort ends tx and passes err on: the one exit of a profile that gives up.
func abort(tx rowTx, err error) error {
	tx.Abort()
	return err
}

// orErr returns err if set, otherwise a fresh error with msg (a missing
// row on a reachable shard is a data bug, not an availability problem).
func orErr(err error, msg string) error {
	if err != nil {
		return err
	}
	return errors.New(msg)
}

func (c *Client) randCID() int {
	return nuRand(c.rng, 1023, cCID, 1, c.cfg.CustomersPerDistrict)
}

func (c *Client) randIID() int {
	return nuRand(c.rng, 8191, cIID, 1, c.cfg.Items)
}

// newOrder implements clause 2.4: insert an order of 5-15 lines, updating
// district and stock. An order line whose supply warehouse lives on
// another shard reads and updates that shard's stock inside the same
// transaction.
func (c *Client) newOrder(p *sim.Proc) error {
	w := c.home
	d := c.rng.Intn(c.cfg.Districts) + 1
	cid := c.randCID()
	olCnt := c.rng.Intn(11) + 5
	rollback := c.rng.Intn(100) == 0 // 1% pick an unused item id

	tx := c.begin(p)
	wRow, ok, err := tx.GetW(p, w, c.tabs.warehouse, c.tmp(appendWKey(c.kb[:0], w)))
	if err != nil || !ok {
		return abort(tx, orErr(err, "tpcc: missing warehouse"))
	}
	wh := DecodeWarehouse(wRow)
	dKey := c.tmp(appendDKey(c.kb[:0], w, d))
	dRow, ok, err := tx.GetW(p, w, c.tabs.district, dKey)
	if err != nil || !ok {
		return abort(tx, orErr(err, "tpcc: missing district"))
	}
	dist := DecodeDistrict(dRow)
	oid := int(dist.NextOID)
	dist.NextOID++
	tx.PutW(w, c.tabs.district, dKey, dist.Encode())

	// The order id names the rows the order inserts: read their pages in
	// one batch with the customer's. The lines' items and stock are drawn
	// one line at a time, after this.
	tx.WantW(w, c.tabs.customer, c.tmp(appendCKey(c.kb[:0], w, d, cid)))
	tx.WantW(w, c.tabs.order, c.tmp(appendOKey(c.kb[:0], w, d, oid)))
	tx.WantW(w, c.tabs.newOrder, c.tmp(appendNOKey(c.kb[:0], w, d, oid)))
	tx.WantW(w, c.tabs.orderLine, c.tmp(appendOLKey(c.kb[:0], w, d, oid, 1)))
	tx.Fetch()

	cRow, ok, err := tx.GetW(p, w, c.tabs.customer, c.tmp(appendCKey(c.kb[:0], w, d, cid)))
	if err != nil || !ok {
		return abort(tx, orErr(err, "tpcc: missing customer"))
	}
	cust := DecodeCustomer(cRow)

	allLocal := true
	var total int64
	for ln := 1; ln <= olCnt; ln++ {
		iid := c.randIID()
		if rollback && ln == olCnt {
			iid = c.cfg.Items + 1 // guaranteed miss
		}
		supplyW := w
		if c.cfg.Warehouses > 1 && c.rng.Intn(100) < c.mix.LinePct {
			for supplyW == w {
				supplyW = c.rng.Intn(c.cfg.Warehouses) + 1
			}
			allLocal = false
		}
		// The item catalog replicates to every shard: read it at home.
		iRow, ok, err := tx.GetW(p, w, c.tabs.item, c.tmp(appendIKey(c.kb[:0], iid)))
		if err != nil || !ok {
			return abort(tx, cmp.Or(err, ErrRollback)) // "unused item number" rollback
		}
		item := DecodeItem(iRow)
		sKey := c.tmp(appendSKey(c.kb[:0], supplyW, iid))
		sRow, ok, err := tx.GetW(p, supplyW, c.tabs.stock, sKey)
		if err != nil || !ok {
			return abort(tx, orErr(err, "tpcc: missing stock"))
		}
		stock := DecodeStock(sRow)
		qty := int64(c.rng.Intn(10) + 1)
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
		tx.PutW(supplyW, c.tabs.stock, sKey, stock.Encode())
		amount := qty * item.Price
		total += amount
		tx.PutW(w, c.tabs.orderLine, c.tmp(appendOLKey(c.kb[:0], w, d, oid, ln)), OrderLine{
			IID: int64(iid), SupplyW: int64(supplyW), Qty: qty,
			Amount: amount, DistInfo: stock.Dist,
		}.Encode())
	}
	_ = total * (10000 - cust.Discount) / 10000 * (10000 + wh.Tax + dist.Tax) / 10000

	tx.PutW(w, c.tabs.order, c.tmp(appendOKey(c.kb[:0], w, d, oid)), Order{
		CID: int64(cid), EntryD: int64(p.Now()), OLCnt: int64(olCnt), AllLocal: allLocal,
	}.Encode())
	tx.PutW(w, c.tabs.newOrder, c.tmp(appendNOKey(c.kb[:0], w, d, oid)), newOrderRow)
	return c.commit(p, tx)
}

// payment implements clause 2.5: pay against warehouse/district/customer,
// recording history. 60% select the customer by last name; some pay
// through a remote customer warehouse, whose balance lives on that
// warehouse's shard while warehouse/district YTD and the history row stay
// home.
func (c *Client) payment(p *sim.Proc) error {
	w := c.home
	d := c.rng.Intn(c.cfg.Districts) + 1
	cw, cd := w, d
	if c.cfg.Warehouses > 1 && c.rng.Intn(100) < c.mix.PayPct {
		for cw == w {
			cw = c.rng.Intn(c.cfg.Warehouses) + 1
		}
		cd = c.rng.Intn(c.cfg.Districts) + 1
	}
	amount := int64(c.rng.Intn(499900) + 100)

	tx := c.begin(p)
	// The history row's key is known from the start; its page is read
	// with the customer's, once the customer is chosen.
	tx.WantW(w, c.tabs.history, c.tmp(appendHKey(c.kb[:0], w, d, tx.ID())))
	wKey := c.tmp(appendWKey(c.kb[:0], w))
	wRow, ok, err := tx.GetW(p, w, c.tabs.warehouse, wKey)
	if err != nil || !ok {
		return abort(tx, orErr(err, "tpcc: missing warehouse"))
	}
	wh := DecodeWarehouse(wRow)
	wh.YTD += amount
	tx.PutW(w, c.tabs.warehouse, wKey, wh.Encode())

	dKey := c.tmp(appendDKey(c.kb[:0], w, d))
	dRow, ok, err := tx.GetW(p, w, c.tabs.district, dKey)
	if err != nil || !ok {
		return abort(tx, orErr(err, "tpcc: missing district"))
	}
	dist := DecodeDistrict(dRow)
	dist.YTD += amount
	tx.PutW(w, c.tabs.district, dKey, dist.Encode())

	cid, err := c.selectCustomer(p, tx, cw, cd)
	if err != nil {
		return abort(tx, err)
	}
	cKey := c.tmp(appendCKey(c.kb[:0], cw, cd, cid))
	tx.WantW(cw, c.tabs.customer, cKey)
	tx.Fetch()
	cRow, ok, err := tx.GetW(p, cw, c.tabs.customer, cKey)
	if err != nil || !ok {
		return abort(tx, orErr(err, "tpcc: missing customer"))
	}
	cust := DecodeCustomer(cRow)
	cust.Balance -= amount
	cust.YTDPayment += amount
	cust.PaymentCnt++
	if cust.Credit == "BC" {
		cust.Data = randomFiller(c.rng, c.cfg.FillerLen)
	}
	tx.PutW(cw, c.tabs.customer, cKey, cust.Encode())
	tx.PutW(w, c.tabs.history, c.tmp(appendHKey(c.kb[:0], w, d, tx.ID())), History{
		CID: int64(cid), Amount: amount, Date: int64(p.Now()),
		Data: wh.Name + " " + dist.Name,
	}.Encode())
	return c.commit(p, tx)
}

// selectCustomer picks by last name 60% of the time (middle match, clause
// 2.5.2.2), by id otherwise, reading the name index of warehouse w.
func (c *Client) selectCustomer(p *sim.Proc, tx rowTx, w, d int) (int, error) {
	if c.rng.Intn(100) < 60 {
		last := LastName(nuRand(c.rng, 255, cLast, 0, 999))
		idxRow, ok, err := tx.GetW(p, w, c.tabs.custIdx, c.tmp(appendCIdxKey(c.kb[:0], w, d, last)))
		if err != nil {
			return 0, err
		}
		if !ok {
			// Name not present at this scale: fall back to id selection.
			return c.randCID(), nil
		}
		c.ids = decodeIDList(c.ids[:0], idxRow)
		if len(c.ids) == 0 {
			return c.randCID(), nil
		}
		return int(c.ids[len(c.ids)/2]), nil
	}
	return c.randCID(), nil
}

// orderStatus implements clause 2.6 (read only): a customer's most recent
// order and its lines.
func (c *Client) orderStatus(p *sim.Proc) error {
	w := c.home
	d := c.rng.Intn(c.cfg.Districts) + 1
	tx := c.begin(p)
	cid, err := c.selectCustomer(p, tx, w, d)
	if err != nil {
		return abort(tx, err)
	}
	if _, ok, err := tx.GetW(p, w, c.tabs.customer, c.tmp(appendCKey(c.kb[:0], w, d, cid))); err != nil || !ok {
		return abort(tx, orErr(err, "tpcc: missing customer"))
	}
	dRow, ok, err := tx.GetW(p, w, c.tabs.district, c.tmp(appendDKey(c.kb[:0], w, d)))
	if err != nil || !ok {
		return abort(tx, orErr(err, "tpcc: missing district"))
	}
	dist := DecodeDistrict(dRow)
	// Scan backwards for this customer's latest order (bounded walk).
	for oid := int(dist.NextOID) - 1; oid >= 1 && oid > int(dist.NextOID)-50; oid-- {
		oRow, ok, err := tx.GetW(p, w, c.tabs.order, c.tmp(appendOKey(c.kb[:0], w, d, oid)))
		if err != nil {
			return abort(tx, err)
		}
		if !ok {
			continue
		}
		order := DecodeOrder(oRow)
		if order.CID != int64(cid) {
			continue
		}
		for ln := 1; ln <= int(order.OLCnt); ln++ {
			if _, _, err := tx.GetW(p, w, c.tabs.orderLine, c.tmp(appendOLKey(c.kb[:0], w, d, oid, ln))); err != nil {
				return abort(tx, err)
			}
		}
		break
	}
	return c.commit(p, tx)
}

// delivery implements clause 2.7: deliver the oldest undelivered order of
// each district. The districts are independent, so their reads go in two
// rounds of one batch each — the district rows, then the new-order and
// order rows they point at — before the writes run district by district:
// each district's writes in the same order, and the districts in order.
func (c *Client) delivery(p *sim.Proc) error {
	w := c.home
	carrier := int64(c.rng.Intn(10) + 1)
	tx := c.begin(p)
	c.due = c.due[:0]
	for d := 1; d <= c.cfg.Districts; d++ {
		dRow, ok, err := tx.GetW(p, w, c.tabs.district, c.tmp(appendDKey(c.kb[:0], w, d)))
		if err != nil {
			return abort(tx, err)
		}
		if !ok {
			continue
		}
		dist := DecodeDistrict(dRow)
		oid := int(dist.NextDelivery)
		if int64(oid) >= dist.NextOID {
			continue // nothing to deliver in this district
		}
		c.due = append(c.due, dueOrder{d: d, oid: oid, dist: dist})
		tx.WantW(w, c.tabs.newOrder, c.tmp(appendNOKey(c.kb[:0], w, d, oid)))
		tx.WantW(w, c.tabs.order, c.tmp(appendOKey(c.kb[:0], w, d, oid)))
		tx.WantW(w, c.tabs.orderLine, c.tmp(appendOLKey(c.kb[:0], w, d, oid, 1)))
	}
	tx.Fetch()
	for i := range c.due {
		o := &c.due[i]
		var err error
		_, o.queued, err = tx.GetW(p, w, c.tabs.newOrder, c.tmp(appendNOKey(c.kb[:0], w, o.d, o.oid)))
		if err != nil {
			return abort(tx, err)
		}
		if !o.queued {
			continue // order consumed by a concurrent delivery
		}
		oRow, ok, err := tx.GetW(p, w, c.tabs.order, c.tmp(appendOKey(c.kb[:0], w, o.d, o.oid)))
		if err != nil {
			return abort(tx, err)
		}
		if o.found = ok; ok {
			o.order = DecodeOrder(oRow)
			tx.WantW(w, c.tabs.customer, c.tmp(appendCKey(c.kb[:0], w, o.d, int(o.order.CID))))
		}
	}
	tx.Fetch()
	for i := range c.due {
		o := &c.due[i]
		d, oid := o.d, o.oid
		if o.queued {
			tx.DeleteW(w, c.tabs.newOrder, c.tmp(appendNOKey(c.kb[:0], w, d, oid)))
		}
		o.dist.NextDelivery++
		tx.PutW(w, c.tabs.district, c.tmp(appendDKey(c.kb[:0], w, d)), o.dist.Encode())
		if !o.queued || !o.found {
			continue // a consumed order still advances the district
		}
		order := o.order
		order.Carrier = carrier
		tx.PutW(w, c.tabs.order, c.tmp(appendOKey(c.kb[:0], w, d, oid)), order.Encode())
		// DeliveryD == 0 means "undelivered", so a delivery at virtual
		// time zero must still stamp a nonzero instant.
		stamp := int64(p.Now())
		if stamp == 0 {
			stamp = 1
		}
		var total int64
		for ln := 1; ln <= int(order.OLCnt); ln++ {
			olKey := c.tmp(appendOLKey(c.kb[:0], w, d, oid, ln))
			olRow, ok, err := tx.GetW(p, w, c.tabs.orderLine, olKey)
			if err != nil {
				return abort(tx, err)
			}
			if !ok {
				continue
			}
			ol := DecodeOrderLine(olRow)
			ol.DeliveryD = stamp
			total += ol.Amount
			tx.PutW(w, c.tabs.orderLine, olKey, ol.Encode())
		}
		cKey := c.tmp(appendCKey(c.kb[:0], w, d, int(order.CID)))
		cRow, ok, err := tx.GetW(p, w, c.tabs.customer, cKey)
		if err != nil {
			return abort(tx, err)
		}
		if !ok {
			continue
		}
		cust := DecodeCustomer(cRow)
		cust.Balance += total
		cust.DeliveryCnt++
		tx.PutW(w, c.tabs.customer, cKey, cust.Encode())
	}
	return c.commit(p, tx)
}

// stockLevel implements clause 2.8 (read only): count recent items with
// stock below a threshold.
func (c *Client) stockLevel(p *sim.Proc) error {
	w := c.home
	d := c.rng.Intn(c.cfg.Districts) + 1
	threshold := int64(c.rng.Intn(11) + 10)
	tx := c.begin(p)
	dRow, ok, err := tx.GetW(p, w, c.tabs.district, c.tmp(appendDKey(c.kb[:0], w, d)))
	if err != nil || !ok {
		return abort(tx, orErr(err, "tpcc: missing district"))
	}
	dist := DecodeDistrict(dRow)
	// The scan's orders and their first lines, read in one batch before
	// it starts.
	for oid := int(dist.NextOID) - 1; oid >= 1 && oid > int(dist.NextOID)-20; oid-- {
		tx.WantW(w, c.tabs.order, c.tmp(appendOKey(c.kb[:0], w, d, oid)))
		tx.WantW(w, c.tabs.orderLine, c.tmp(appendOLKey(c.kb[:0], w, d, oid, 1)))
	}
	tx.Fetch()
	low := 0
	clear(c.seen)
	for oid := int(dist.NextOID) - 1; oid >= 1 && oid > int(dist.NextOID)-20; oid-- {
		oRow, ok, err := tx.GetW(p, w, c.tabs.order, c.tmp(appendOKey(c.kb[:0], w, d, oid)))
		if err != nil {
			return abort(tx, err)
		}
		if !ok {
			continue
		}
		order := DecodeOrder(oRow)
		for ln := 1; ln <= int(order.OLCnt); ln++ {
			olRow, ok, err := tx.GetW(p, w, c.tabs.orderLine, c.tmp(appendOLKey(c.kb[:0], w, d, oid, ln)))
			if err != nil {
				return abort(tx, err)
			}
			if !ok {
				continue
			}
			ol := DecodeOrderLine(olRow)
			if c.seen[ol.IID] {
				continue
			}
			c.seen[ol.IID] = true
			sRow, ok, err := tx.GetW(p, w, c.tabs.stock, c.tmp(appendSKey(c.kb[:0], w, int(ol.IID))))
			if err != nil {
				return abort(tx, err)
			}
			if ok && DecodeStock(sRow).Qty < threshold {
				low++
			}
		}
	}
	_ = low
	return c.commit(p, tx)
}
