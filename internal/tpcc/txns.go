package tpcc

import (
	"errors"
	"math/rand"

	"xssd/internal/db"
	"xssd/internal/sim"
	"xssd/internal/wal"
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

// ErrRollback is the intentional 1% NewOrder rollback (clause 2.4.1.4).
var ErrRollback = errors.New("tpcc: intentional user rollback")

// Client executes the TPC-C mix against an engine from one home
// warehouse terminal.
type Client struct {
	cfg  Config
	eng  *db.Engine
	rng  *rand.Rand
	home int

	counts  [numTxTypes]int64
	aborts  int64
	retries int64

	// commitFn overrides the commit path (pipelined commit); nil means
	// synchronous tx.Commit. asyncFn is the CommitAsync path RunMixAsync
	// switches to; both are bound once, in NewClient.
	commitFn func(*sim.Proc, *db.Tx) error
	asyncFn  func(*sim.Proc, *db.Tx) error
	lastLSN  int64
	pipe     *wal.Pipeline // non-nil when Config.PipelineDepth > 0

	// Resolved table handles: every row access in the transaction mix
	// goes through these, skipping the engine's per-access name lookup.
	tabs tableSet

	// Per-call scratch the terminal owns, cleared by the profile that
	// uses it: the customer ids of one name-index row, and the item ids
	// Stock-Level has already counted.
	ids  []int64
	seen map[int64]bool
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

// NewClient creates a terminal bound to homeWID. With
// Config.PipelineDepth > 0 (and a WAL-backed engine) the terminal
// commits through a private wal.Pipeline, keeping that many
// transactions in flight instead of stalling on each durability wait;
// call DrainPipeline before reading final durable counts.
func NewClient(eng *db.Engine, cfg Config, seed int64, homeWID int) *Client {
	c := newTerminal(eng, cfg, seed, homeWID)
	c.asyncFn = func(_ *sim.Proc, tx *db.Tx) error {
		lsn, err := tx.CommitAsync()
		if err == nil {
			c.lastLSN = lsn
		}
		return err
	}
	if cfg.PipelineDepth > 0 && eng.Log() != nil {
		c.pipe = wal.NewPipeline(eng.Log(), cfg.PipelineDepth, cfg.PipelineScope)
		c.commitFn = func(p *sim.Proc, tx *db.Tx) error {
			lsn, err := tx.CommitPipelined(p, c.pipe)
			if err == nil {
				c.lastLSN = lsn
			}
			return err
		}
	}
	return c
}

// newTerminal builds the state every terminal has — the classic one and
// the one inside a ShardedClient — with the synchronous commit path.
func newTerminal(eng *db.Engine, cfg Config, seed int64, homeWID int) *Client {
	return &Client{
		cfg: cfg, eng: eng, rng: rand.New(rand.NewSource(seed)), home: homeWID,
		tabs: resolveTables(eng), seen: map[int64]bool{},
	}
}

// Pipeline returns the terminal's commit pipeline (nil on the classic
// synchronous path).
func (c *Client) Pipeline() *wal.Pipeline { return c.pipe }

// DrainPipeline blocks until every in-flight commit is durable; a no-op
// on the classic path.
func (c *Client) DrainPipeline(p *sim.Proc) {
	if c.pipe != nil {
		c.pipe.Drain(p)
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
// conflicts up to three times. It returns the committed transaction's
// type; intentional rollbacks count as completed NewOrders per the spec.
func (c *Client) RunOne(p *sim.Proc, t TxType) error {
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

// commit finishes a transaction through the configured commit path.
func (c *Client) commit(p *sim.Proc, tx *db.Tx) error {
	if c.commitFn != nil {
		return c.commitFn(p, tx)
	}
	return tx.Commit(p)
}

// RunMixAsync executes one mixed transaction with pipelined commit: the
// write set is applied and appended to the log, and the LSN to wait on is
// returned instead of blocking (0 for read-only transactions and
// intentional rollbacks). Conflicts are retried like RunOne.
func (c *Client) RunMixAsync(p *sim.Proc) (int64, error) {
	c.lastLSN = 0
	prev := c.commitFn // a pipelined terminal restores its commit path
	c.commitFn = c.asyncFn
	_, err := c.RunMix(p)
	c.commitFn = prev
	return c.lastLSN, err
}

func (c *Client) randCID() int {
	return nuRand(c.rng, 1023, cCID, 1, c.cfg.CustomersPerDistrict)
}

func (c *Client) randIID() int {
	return nuRand(c.rng, 8191, cIID, 1, c.cfg.Items)
}

// newOrder implements clause 2.4: insert an order of 5-15 lines, updating
// district and stock.
func (c *Client) newOrder(p *sim.Proc) error {
	w := c.home
	d := c.rng.Intn(c.cfg.Districts) + 1
	cid := c.randCID()
	olCnt := c.rng.Intn(11) + 5
	rollback := c.rng.Intn(100) == 0 // 1% pick an unused item id

	tx := c.eng.BeginP(p)
	wRow, ok := tx.GetIn(c.tabs.warehouse, WKey(w))
	if !ok {
		tx.Abort()
		return errors.New("tpcc: missing warehouse")
	}
	wh := DecodeWarehouse(wRow)
	dKey := DKey(w, d)
	dRow, ok := tx.GetIn(c.tabs.district, dKey)
	if !ok {
		tx.Abort()
		return errors.New("tpcc: missing district")
	}
	dist := DecodeDistrict(dRow)
	oid := int(dist.NextOID)
	dist.NextOID++
	tx.PutOwnedIn(c.tabs.district, dKey, dist.Encode())

	cRow, ok := tx.GetIn(c.tabs.customer, CKey(w, d, cid))
	if !ok {
		tx.Abort()
		return errors.New("tpcc: missing customer")
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
		if c.cfg.Warehouses > 1 && c.rng.Intn(100) == 0 { // 1% remote
			for supplyW == w {
				supplyW = c.rng.Intn(c.cfg.Warehouses) + 1
			}
			allLocal = false
		}
		iRow, ok := tx.GetIn(c.tabs.item, IKey(iid))
		if !ok {
			tx.Abort()
			return ErrRollback // "unused item number" rollback
		}
		item := DecodeItem(iRow)
		sKey := SKey(supplyW, iid)
		sRow, ok := tx.GetIn(c.tabs.stock, sKey)
		if !ok {
			tx.Abort()
			return errors.New("tpcc: missing stock")
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
		tx.PutOwnedIn(c.tabs.stock, sKey, stock.Encode())
		amount := qty * item.Price
		total += amount
		tx.PutOwnedIn(c.tabs.orderLine, OLKey(w, d, oid, ln), OrderLine{
			IID: int64(iid), SupplyW: int64(supplyW), Qty: qty,
			Amount: amount, DistInfo: stock.Dist,
		}.Encode())
	}
	_ = total * (10000 - cust.Discount) / 10000 * (10000 + wh.Tax + dist.Tax) / 10000

	tx.PutOwnedIn(c.tabs.order, OKey(w, d, oid), Order{
		CID: int64(cid), EntryD: int64(p.Now()), OLCnt: int64(olCnt), AllLocal: allLocal,
	}.Encode())
	tx.PutOwnedIn(c.tabs.newOrder, NOKey(w, d, oid), []byte{1})
	return c.commit(p, tx)
}

// payment implements clause 2.5: pay against warehouse/district/customer,
// recording history. 60% select the customer by last name, 15% pay through
// a remote warehouse.
func (c *Client) payment(p *sim.Proc) error {
	w := c.home
	d := c.rng.Intn(c.cfg.Districts) + 1
	cw, cd := w, d
	if c.cfg.Warehouses > 1 && c.rng.Intn(100) < 15 {
		for cw == w {
			cw = c.rng.Intn(c.cfg.Warehouses) + 1
		}
		cd = c.rng.Intn(c.cfg.Districts) + 1
	}
	amount := int64(c.rng.Intn(499900) + 100)

	tx := c.eng.BeginP(p)
	wKey := WKey(w)
	wRow, ok := tx.GetIn(c.tabs.warehouse, wKey)
	if !ok {
		tx.Abort()
		return errors.New("tpcc: missing warehouse")
	}
	wh := DecodeWarehouse(wRow)
	wh.YTD += amount
	tx.PutOwnedIn(c.tabs.warehouse, wKey, wh.Encode())

	dKey := DKey(w, d)
	dRow, ok := tx.GetIn(c.tabs.district, dKey)
	if !ok {
		tx.Abort()
		return errors.New("tpcc: missing district")
	}
	dist := DecodeDistrict(dRow)
	dist.YTD += amount
	tx.PutOwnedIn(c.tabs.district, dKey, dist.Encode())

	cid, err := c.selectCustomer(tx, cw, cd)
	if err != nil {
		tx.Abort()
		return err
	}
	cKey := CKey(cw, cd, cid)
	cRow, ok := tx.GetIn(c.tabs.customer, cKey)
	if !ok {
		tx.Abort()
		return errors.New("tpcc: missing customer")
	}
	cust := DecodeCustomer(cRow)
	cust.Balance -= amount
	cust.YTDPayment += amount
	cust.PaymentCnt++
	if cust.Credit == "BC" {
		cust.Data = randomFiller(c.rng, c.cfg.FillerLen)
	}
	tx.PutOwnedIn(c.tabs.customer, cKey, cust.Encode())
	tx.PutOwnedIn(c.tabs.history, HKey(w, d, tx.ID()), History{
		CID: int64(cid), Amount: amount, Date: int64(p.Now()),
		Data: wh.Name + " " + dist.Name,
	}.Encode())
	return c.commit(p, tx)
}

// selectCustomer picks by last name 60% of the time (middle match, clause
// 2.5.2.2), by id otherwise.
func (c *Client) selectCustomer(tx *db.Tx, w, d int) (int, error) {
	if c.rng.Intn(100) < 60 {
		last := LastName(nuRand(c.rng, 255, cLast, 0, 999))
		idxRow, ok := tx.GetIn(c.tabs.custIdx, CIdxKey(w, d, last))
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
	tx := c.eng.BeginP(p)
	cid, err := c.selectCustomer(tx, w, d)
	if err != nil {
		tx.Abort()
		return err
	}
	if _, ok := tx.GetIn(c.tabs.customer, CKey(w, d, cid)); !ok {
		tx.Abort()
		return errors.New("tpcc: missing customer")
	}
	dRow, ok := tx.GetIn(c.tabs.district, DKey(w, d))
	if !ok {
		tx.Abort()
		return errors.New("tpcc: missing district")
	}
	dist := DecodeDistrict(dRow)
	// Scan backwards for this customer's latest order (bounded walk).
	for oid := int(dist.NextOID) - 1; oid >= 1 && oid > int(dist.NextOID)-50; oid-- {
		oRow, ok := tx.GetIn(c.tabs.order, OKey(w, d, oid))
		if !ok {
			continue
		}
		order := DecodeOrder(oRow)
		if order.CID != int64(cid) {
			continue
		}
		for ln := 1; ln <= int(order.OLCnt); ln++ {
			tx.GetIn(c.tabs.orderLine, OLKey(w, d, oid, ln))
		}
		break
	}
	return c.commit(p, tx)
}

// delivery implements clause 2.7: deliver the oldest undelivered order of
// each district.
func (c *Client) delivery(p *sim.Proc) error {
	w := c.home
	carrier := int64(c.rng.Intn(10) + 1)
	tx := c.eng.BeginP(p)
	for d := 1; d <= c.cfg.Districts; d++ {
		dKey := DKey(w, d)
		dRow, ok := tx.GetIn(c.tabs.district, dKey)
		if !ok {
			continue
		}
		dist := DecodeDistrict(dRow)
		oid := int(dist.NextDelivery)
		if int64(oid) >= dist.NextOID {
			continue // nothing to deliver in this district
		}
		noKey := NOKey(w, d, oid)
		if _, ok := tx.GetIn(c.tabs.newOrder, noKey); !ok {
			// Order consumed by a concurrent delivery; advance anyway.
			dist.NextDelivery++
			tx.PutOwnedIn(c.tabs.district, dKey, dist.Encode())
			continue
		}
		tx.DeleteIn(c.tabs.newOrder, noKey)
		dist.NextDelivery++
		tx.PutOwnedIn(c.tabs.district, dKey, dist.Encode())

		oKey := OKey(w, d, oid)
		oRow, ok := tx.GetIn(c.tabs.order, oKey)
		if !ok {
			continue
		}
		order := DecodeOrder(oRow)
		order.Carrier = carrier
		tx.PutOwnedIn(c.tabs.order, oKey, order.Encode())
		// DeliveryD == 0 means "undelivered", so a delivery at virtual
		// time zero must still stamp a nonzero instant.
		stamp := int64(p.Now())
		if stamp == 0 {
			stamp = 1
		}
		var total int64
		for ln := 1; ln <= int(order.OLCnt); ln++ {
			olKey := OLKey(w, d, oid, ln)
			olRow, ok := tx.GetIn(c.tabs.orderLine, olKey)
			if !ok {
				continue
			}
			ol := DecodeOrderLine(olRow)
			ol.DeliveryD = stamp
			total += ol.Amount
			tx.PutOwnedIn(c.tabs.orderLine, olKey, ol.Encode())
		}
		cKey := CKey(w, d, int(order.CID))
		cRow, ok := tx.GetIn(c.tabs.customer, cKey)
		if !ok {
			continue
		}
		cust := DecodeCustomer(cRow)
		cust.Balance += total
		cust.DeliveryCnt++
		tx.PutOwnedIn(c.tabs.customer, cKey, cust.Encode())
	}
	return c.commit(p, tx)
}

// stockLevel implements clause 2.8 (read only): count recent items with
// stock below a threshold.
func (c *Client) stockLevel(p *sim.Proc) error {
	w := c.home
	d := c.rng.Intn(c.cfg.Districts) + 1
	threshold := int64(c.rng.Intn(11) + 10)
	tx := c.eng.BeginP(p)
	dRow, ok := tx.GetIn(c.tabs.district, DKey(w, d))
	if !ok {
		tx.Abort()
		return errors.New("tpcc: missing district")
	}
	dist := DecodeDistrict(dRow)
	low := 0
	clear(c.seen)
	for oid := int(dist.NextOID) - 1; oid >= 1 && oid > int(dist.NextOID)-20; oid-- {
		oRow, ok := tx.GetIn(c.tabs.order, OKey(w, d, oid))
		if !ok {
			continue
		}
		order := DecodeOrder(oRow)
		for ln := 1; ln <= int(order.OLCnt); ln++ {
			olRow, ok := tx.GetIn(c.tabs.orderLine, OLKey(w, d, oid, ln))
			if !ok {
				continue
			}
			ol := DecodeOrderLine(olRow)
			if c.seen[ol.IID] {
				continue
			}
			c.seen[ol.IID] = true
			sRow, ok := tx.GetIn(c.tabs.stock, SKey(w, int(ol.IID)))
			if !ok {
				continue
			}
			if DecodeStock(sRow).Qty < threshold {
				low++
			}
		}
	}
	_ = low
	return c.commit(p, tx)
}
