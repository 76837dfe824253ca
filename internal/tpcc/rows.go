// Package tpcc implements the TPC-C workload the paper's evaluation drives
// through ERMIA (§6: "the TPC-C benchmark ... with 16 warehouses"): table
// schemas with compact binary row codecs, the standard data generator, and
// the five transaction profiles with the standard mix.
package tpcc

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"unsafe"

	"xssd/internal/db"
)

// Table names.
const (
	TWarehouse = "warehouse"
	TDistrict  = "district"
	TCustomer  = "customer"
	TCustIdx   = "customer_name_idx"
	THistory   = "history"
	TNewOrder  = "new_order"
	TOrder     = "orders"
	TOrderLine = "order_line"
	TItem      = "item"
	TStock     = "stock"
)

// Config scales the database. The TPC-C spec values are Districts=10,
// CustomersPerDistrict=3000, Items=100000; the default scales customers
// and items down so simulations stay light while preserving the log
// traffic shape (record sizes are governed by FillerLen).
type Config struct {
	// Warehouses is the warehouse count W — the TPC-C scale factor.
	Warehouses int
	// Districts is the number of districts per warehouse (spec: 10).
	Districts int
	// CustomersPerDistrict sizes each district's customer table
	// (spec: 3000; the default shrinks it to keep simulations light).
	CustomersPerDistrict int
	// Items is the size of the shared item catalog (spec: 100000).
	Items int
	// FillerLen sizes the free-text fields (spec uses 24-50 chars); it is
	// the main knob for WAL record size.
	FillerLen int
}

// DefaultConfig is the scaled-down configuration used by tests and the
// benchmark harness (16 warehouses like the paper, reduced rows).
func DefaultConfig() Config {
	return Config{Warehouses: 16, Districts: 10, CustomersPerDistrict: 60, Items: 200, FillerLen: 12}
}

// --- key construction -------------------------------------------------------

// Keys are built with strconv-style appends, not fmt: key construction
// runs once or more per row access and Sprintf was a top profile entry
// in the Fig 9 workload. Each builder produces the exact byte sequence
// the old Sprintf form did.
//
// Every key has an append form that builds it into a caller's buffer. A
// terminal names every row it reads or writes with the append form, into
// its scratch (Client.tmp): db.Tx keeps no key of its caller's — the write
// set copies the bytes and the stores own the keys they keep — so naming a
// row allocates nothing. The loader builds its keys the same way. The
// string forms are for callers outside the package.

// appendKey appends prefix and then ids, decimal and colon-separated: the
// layout of every composite key.
func appendKey(b []byte, prefix string, ids ...int64) []byte {
	b = append(b, prefix...)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ':')
		}
		b = strconv.AppendInt(b, id, 10)
	}
	return b
}

func appendWKey(b []byte, w int) []byte    { return appendKey(b, "w:", int64(w)) }
func appendDKey(b []byte, w, d int) []byte { return appendKey(b, "d:", int64(w), int64(d)) }
func appendCKey(b []byte, w, d, c int) []byte {
	return appendKey(b, "c:", int64(w), int64(d), int64(c))
}
func appendCIdxKey(b []byte, w, d int, last string) []byte {
	b = append(appendKey(b, "cn:", int64(w), int64(d)), ':')
	return append(b, last...)
}
func appendIKey(b []byte, i int) []byte    { return appendKey(b, "i:", int64(i)) }
func appendSKey(b []byte, w, i int) []byte { return appendKey(b, "s:", int64(w), int64(i)) }
func appendOKey(b []byte, w, d, o int) []byte {
	return appendKey(b, "o:", int64(w), int64(d), int64(o))
}
func appendOLKey(b []byte, w, d, o, n int) []byte {
	return appendKey(b, "ol:", int64(w), int64(d), int64(o), int64(n))
}
func appendNOKey(b []byte, w, d, o int) []byte {
	return appendKey(b, "no:", int64(w), int64(d), int64(o))
}
func appendHKey(b []byte, w, d int, tx int64) []byte {
	return appendKey(b, "h:", int64(w), int64(d), tx)
}

// keyCap sizes the buffer a string form builds in, on the stack: a key
// that outgrows it still comes out right, through one more allocation.
const keyCap = 40

// WKey..SKey build the composite row keys as strings.
func WKey(w int) string       { return string(appendWKey(make([]byte, 0, keyCap), w)) }
func DKey(w, d int) string    { return string(appendDKey(make([]byte, 0, keyCap), w, d)) }
func CKey(w, d, c int) string { return string(appendCKey(make([]byte, 0, keyCap), w, d, c)) }
func CIdxKey(w, d int, last string) string {
	return string(appendCIdxKey(make([]byte, 0, keyCap), w, d, last))
}
func IKey(i int) string    { return string(appendIKey(make([]byte, 0, keyCap), i)) }
func SKey(w, i int) string { return string(appendSKey(make([]byte, 0, keyCap), w, i)) }

// --- binary codec -----------------------------------------------------------

type enc struct{ b []byte }

// newEnc returns an encoder whose buffer is pre-sized for the row about
// to be written, so the append chain never reallocates on the hot path.
func newEnc(capHint int) enc { return enc{b: make([]byte, 0, capHint)} }

func (e *enc) u(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i(v int64)  { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) s(s string) {
	e.u(uint64(len(s)))
	e.b = append(e.b, s...)
}

// dec reads a row back. Decoding copies nothing: a string field of the
// decoded row is a view into the row bytes, so the bytes handed to a
// Decode function must never change afterwards. Rows read through
// db.Tx.GetIn qualify — its contract is that an installed value is
// immutable — and nothing else is decoded on a hot path. Malformed bytes
// decode to zero fields, never a panic or a read past the row.
type dec struct {
	b   []byte
	bad bool
}

//xssd:hotpath
func (d *dec) u() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

//xssd:hotpath
func (d *dec) i() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

//xssd:hotpath
func (d *dec) s() string {
	n := d.u()
	if d.bad || n > uint64(len(d.b)) {
		d.bad = true
		return ""
	}
	out := unsafe.String(unsafe.SliceData(d.b), int(n))
	d.b = d.b[n:]
	return out
}

// --- rows -------------------------------------------------------------------

// Warehouse row.
type Warehouse struct {
	Name string
	Tax  int64 // basis points
	YTD  int64 // cents
}

// Encode serializes the row.
func (r Warehouse) Encode() []byte {
	e := newEnc(len(r.Name) + 24)
	e.s(r.Name)
	e.i(r.Tax)
	e.i(r.YTD)
	return e.b
}

// DecodeWarehouse parses a warehouse row.
//
//xssd:hotpath
func DecodeWarehouse(b []byte) Warehouse {
	d := dec{b: b}
	return Warehouse{Name: d.s(), Tax: d.i(), YTD: d.i()}
}

// District row.
type District struct {
	Name         string
	Tax          int64
	YTD          int64
	NextOID      int64 // next order id to assign
	NextDelivery int64 // oldest undelivered order id
}

// Encode serializes the row.
func (r District) Encode() []byte {
	e := newEnc(len(r.Name) + 48)
	e.s(r.Name)
	e.i(r.Tax)
	e.i(r.YTD)
	e.i(r.NextOID)
	e.i(r.NextDelivery)
	return e.b
}

// DecodeDistrict parses a district row.
//
//xssd:hotpath
func DecodeDistrict(b []byte) District {
	d := dec{b: b}
	return District{Name: d.s(), Tax: d.i(), YTD: d.i(), NextOID: d.i(), NextDelivery: d.i()}
}

// Customer row.
type Customer struct {
	First       string
	Last        string
	Credit      string // "GC" or "BC"
	Discount    int64  // basis points
	Balance     int64  // cents (may go negative)
	YTDPayment  int64
	PaymentCnt  int64
	DeliveryCnt int64
	Data        string
}

// Encode serializes the row.
func (r Customer) Encode() []byte {
	e := newEnc(len(r.First) + len(r.Last) + len(r.Credit) + len(r.Data) + 64)
	e.s(r.First)
	e.s(r.Last)
	e.s(r.Credit)
	e.i(r.Discount)
	e.i(r.Balance)
	e.i(r.YTDPayment)
	e.i(r.PaymentCnt)
	e.i(r.DeliveryCnt)
	e.s(r.Data)
	return e.b
}

// DecodeCustomer parses a customer row.
//
//xssd:hotpath
func DecodeCustomer(b []byte) Customer {
	d := dec{b: b}
	return Customer{
		First: d.s(), Last: d.s(), Credit: d.s(),
		Discount: d.i(), Balance: d.i(), YTDPayment: d.i(),
		PaymentCnt: d.i(), DeliveryCnt: d.i(), Data: d.s(),
	}
}

// Item row.
type Item struct {
	Name  string
	Price int64 // cents
	Data  string
}

// Encode serializes the row.
func (r Item) Encode() []byte {
	e := newEnc(len(r.Name) + len(r.Data) + 24)
	e.s(r.Name)
	e.i(r.Price)
	e.s(r.Data)
	return e.b
}

// DecodeItem parses an item row.
//
//xssd:hotpath
func DecodeItem(b []byte) Item {
	d := dec{b: b}
	return Item{Name: d.s(), Price: d.i(), Data: d.s()}
}

// Stock row.
type Stock struct {
	Qty       int64
	YTD       int64
	OrderCnt  int64
	RemoteCnt int64
	Dist      string // district info filler
	Data      string
}

// Encode serializes the row.
func (r Stock) Encode() []byte {
	e := newEnc(len(r.Dist) + len(r.Data) + 48)
	e.i(r.Qty)
	e.i(r.YTD)
	e.i(r.OrderCnt)
	e.i(r.RemoteCnt)
	e.s(r.Dist)
	e.s(r.Data)
	return e.b
}

// DecodeStock parses a stock row.
//
//xssd:hotpath
func DecodeStock(b []byte) Stock {
	d := dec{b: b}
	return Stock{Qty: d.i(), YTD: d.i(), OrderCnt: d.i(), RemoteCnt: d.i(), Dist: d.s(), Data: d.s()}
}

// Order row.
type Order struct {
	CID      int64
	EntryD   int64 // virtual nanoseconds
	Carrier  int64 // 0: not delivered
	OLCnt    int64
	AllLocal bool
}

// Encode serializes the row.
func (r Order) Encode() []byte {
	e := newEnc(48)
	e.i(r.CID)
	e.i(r.EntryD)
	e.i(r.Carrier)
	e.i(r.OLCnt)
	al := int64(0)
	if r.AllLocal {
		al = 1
	}
	e.i(al)
	return e.b
}

// DecodeOrder parses an order row.
//
//xssd:hotpath
func DecodeOrder(b []byte) Order {
	d := dec{b: b}
	return Order{CID: d.i(), EntryD: d.i(), Carrier: d.i(), OLCnt: d.i(), AllLocal: d.i() == 1}
}

// OrderLine row.
type OrderLine struct {
	IID       int64
	SupplyW   int64
	Qty       int64
	Amount    int64 // cents
	DeliveryD int64 // 0: undelivered
	DistInfo  string
}

// Encode serializes the row.
func (r OrderLine) Encode() []byte {
	e := newEnc(len(r.DistInfo) + 56)
	e.i(r.IID)
	e.i(r.SupplyW)
	e.i(r.Qty)
	e.i(r.Amount)
	e.i(r.DeliveryD)
	e.s(r.DistInfo)
	return e.b
}

// DecodeOrderLine parses an order-line row.
//
//xssd:hotpath
func DecodeOrderLine(b []byte) OrderLine {
	d := dec{b: b}
	return OrderLine{IID: d.i(), SupplyW: d.i(), Qty: d.i(), Amount: d.i(), DeliveryD: d.i(), DistInfo: d.s()}
}

// History row.
type History struct {
	CID    int64
	Amount int64
	Date   int64
	Data   string
}

// Encode serializes the row.
func (r History) Encode() []byte {
	e := newEnc(len(r.Data) + 32)
	e.i(r.CID)
	e.i(r.Amount)
	e.i(r.Date)
	e.s(r.Data)
	return e.b
}

// DecodeHistory parses a history row.
//
//xssd:hotpath
func DecodeHistory(b []byte) History {
	d := dec{b: b}
	return History{CID: d.i(), Amount: d.i(), Date: d.i(), Data: d.s()}
}

// encodeIDList / decodeIDList back the customer-by-last-name index.
func encodeIDList(ids []int64) []byte {
	e := newEnc(8 + 10*len(ids))
	e.u(uint64(len(ids)))
	for _, id := range ids {
		e.i(id)
	}
	return e.b
}

// decodeIDList appends the list to dst (a terminal passes its scratch, so
// a by-name customer selection allocates nothing). A count the bytes
// cannot hold — every id takes at least one — decodes to no ids.
//
//xssd:hotpath
func decodeIDList(dst []int64, b []byte) []int64 {
	d := dec{b: b}
	n := d.u()
	if n > uint64(len(d.b)) {
		return dst
	}
	for i := uint64(0); i < n; i++ {
		dst = append(dst, d.i())
	}
	return dst
}

// --- random helpers (TPC-C clause 2.1.6 and 4.3) ----------------------------

// nuRand C constants, fixed per spec shape (run-time constants).
const (
	cLast = 173
	cCID  = 319
	cIID  = 1217
)

// nuRand implements the non-uniform random function NURand(A, x, y).
func nuRand(rng *rand.Rand, a, c, x, y int) int {
	return (((rng.Intn(a+1) | (x + rng.Intn(y-x+1))) + c) % (y - x + 1)) + x
}

var lastSyllables = [10]string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}

// LastName builds the spec's syllable-composed customer last name.
func LastName(num int) string {
	return lastSyllables[num/100%10] + lastSyllables[num/10%10] + lastSyllables[num%10]
}

func randomFiller(rng *rand.Rand, n int) string {
	const alpha = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < n; i++ {
		sb.WriteByte(alpha[rng.Intn(len(alpha))])
	}
	return sb.String()
}

// --- loader -----------------------------------------------------------------

// Load populates eng with a freshly generated TPC-C database, bypassing
// the log (clause 4.3 population, scaled by cfg).
func Load(eng *db.Engine, cfg Config, seed int64) {
	LoadWarehouses(eng, cfg, seed, nil)
}

// LoadWarehouses populates eng like Load but installs only the rows of
// warehouses the owns predicate claims (nil claims all). The generator
// draws the identical random sequence regardless of ownership, so shards
// loading disjoint warehouse slices of the same (cfg, seed) hold exactly
// the rows one engine loading everything would — partitioning changes
// placement, never content. The item catalog is read-only and installs
// everywhere.
func LoadWarehouses(eng *db.Engine, cfg Config, seed int64, owns func(w int) bool) {
	rng := rand.New(rand.NewSource(seed))
	// Every key is built into kb and loaded through a view of it:
	// LoadRow keeps no key.
	var kb []byte
	loadKey := func(b []byte) string {
		kb = b
		return unsafe.String(unsafe.SliceData(b), len(b))
	}
	for _, t := range []string{TWarehouse, TDistrict, TCustomer, TCustIdx, THistory, TNewOrder, TOrder, TOrderLine, TItem, TStock} {
		eng.CreateTable(t)
	}
	for i := 1; i <= cfg.Items; i++ {
		eng.LoadRow(TItem, loadKey(appendIKey(kb[:0], i)), Item{
			Name:  randomFiller(rng, cfg.FillerLen),
			Price: int64(rng.Intn(9900) + 100),
			Data:  randomFiller(rng, cfg.FillerLen),
		}.Encode())
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		keep := owns == nil || owns(w)
		put := func(table, key string, val []byte) {
			if keep {
				eng.LoadRow(table, key, val)
			}
		}
		put(TWarehouse, loadKey(appendWKey(kb[:0], w)), Warehouse{
			Name: fmt.Sprintf("wh-%d", w),
			Tax:  int64(rng.Intn(2000)),
		}.Encode())
		for i := 1; i <= cfg.Items; i++ {
			put(TStock, loadKey(appendSKey(kb[:0], w, i)), Stock{
				Qty:  int64(rng.Intn(91) + 10),
				Dist: randomFiller(rng, cfg.FillerLen),
				Data: randomFiller(rng, cfg.FillerLen),
			}.Encode())
		}
		for d := 1; d <= cfg.Districts; d++ {
			put(TDistrict, loadKey(appendDKey(kb[:0], w, d)), District{
				Name:         fmt.Sprintf("dist-%d-%d", w, d),
				Tax:          int64(rng.Intn(2000)),
				NextOID:      1,
				NextDelivery: 1,
			}.Encode())
			byName := map[string][]int64{}
			for c := 1; c <= cfg.CustomersPerDistrict; c++ {
				nameNum := c - 1
				if nameNum >= 1000 {
					nameNum = nuRand(rng, 255, cLast, 0, 999)
				}
				last := LastName(nameNum)
				credit := "GC"
				if rng.Intn(10) == 0 {
					credit = "BC"
				}
				put(TCustomer, loadKey(appendCKey(kb[:0], w, d, c)), Customer{
					First:    randomFiller(rng, cfg.FillerLen),
					Last:     last,
					Credit:   credit,
					Discount: int64(rng.Intn(5000)),
					Balance:  -1000,
					Data:     randomFiller(rng, cfg.FillerLen),
				}.Encode())
				byName[last] = append(byName[last], int64(c))
			}
			// Install in name order, so the load makes the same calls in
			// the same order every time (xvet's maporder check). A paged
			// engine sorts what it loads by key anyway (db.Engine.LoadRow),
			// so page layout no longer depends on this order.
			lasts := make([]string, 0, len(byName))
			for last := range byName {
				lasts = append(lasts, last)
			}
			sort.Strings(lasts)
			for _, last := range lasts {
				put(TCustIdx, loadKey(appendCIdxKey(kb[:0], w, d, last)), encodeIDList(byName[last]))
			}
		}
	}
}
