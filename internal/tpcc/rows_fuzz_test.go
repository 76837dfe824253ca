package tpcc

import (
	"slices"
	"testing"
)

// framed copies b into the front of a larger buffer whose tail is filled
// with pad and returns the front: a decoder that read past the row would
// see pad, and decoding under two different pads would disagree.
func framed(b []byte, pad byte) []byte {
	buf := make([]byte, len(b)+32)
	copy(buf, b)
	for i := len(b); i < len(buf); i++ {
		buf[i] = pad
	}
	return buf[:len(b)]
}

// checkRowCodec holds one row decoder to the codec's three rules on
// arbitrary bytes: it does not panic, what it returns depends on the row
// bytes alone, and the row it returns survives Encode → Decode unchanged.
func checkRowCodec[R interface {
	comparable
	Encode() []byte
}](t *testing.T, name string, decode func([]byte) R, b []byte) {
	r := decode(framed(b, 0x00))
	if other := decode(framed(b, 0xFF)); other != r {
		t.Errorf("%s: decoding %x read past the row: %+v with zeros behind it, %+v with ones", name, b, r, other)
	}
	if back := decode(r.Encode()); back != r {
		t.Errorf("%s: %+v re-encodes to %+v", name, r, back)
	}
}

// FuzzRowDecode runs the nine decoders — the eight row types and the
// customer-name index's id list — over arbitrary bytes. Decoded strings are
// views into the input (rows.go, dec), so "never reads past the row" is a
// memory-safety property here, not only a parsing one.
func FuzzRowDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // a length of 2^63: negative as an int
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // an overlong varint
	f.Add([]byte{40, 'a', 'b'})                                               // a string longer than the row
	f.Add(Warehouse{Name: "wh-1", Tax: 1234, YTD: -99}.Encode())
	f.Add(District{Name: "dist-1-2", Tax: 7, YTD: 100, NextOID: 3001, NextDelivery: 2100}.Encode())
	f.Add(Customer{First: "f", Last: "BARBARBAR", Credit: "BC", Discount: 5, Balance: -1000, Data: "data"}.Encode())
	f.Add(Item{Name: "item", Price: 999, Data: ""}.Encode())
	f.Add(Stock{Qty: 50, YTD: 3, OrderCnt: 2, RemoteCnt: 1, Dist: "dist-info", Data: "d"}.Encode())
	f.Add(Order{CID: 7, EntryD: 1 << 40, Carrier: 3, OLCnt: 15, AllLocal: true}.Encode())
	f.Add(OrderLine{IID: 9, SupplyW: 2, Qty: 5, Amount: 4995, DeliveryD: 1, DistInfo: "info"}.Encode())
	f.Add(History{CID: 1, Amount: 2, Date: 3, Data: "wh-1 dist-1-2"}.Encode())
	f.Add(encodeIDList([]int64{3, 1, 2}))
	f.Fuzz(func(t *testing.T, b []byte) {
		checkRowCodec(t, "Warehouse", DecodeWarehouse, b)
		checkRowCodec(t, "District", DecodeDistrict, b)
		checkRowCodec(t, "Customer", DecodeCustomer, b)
		checkRowCodec(t, "Item", DecodeItem, b)
		checkRowCodec(t, "Stock", DecodeStock, b)
		checkRowCodec(t, "Order", DecodeOrder, b)
		checkRowCodec(t, "OrderLine", DecodeOrderLine, b)
		checkRowCodec(t, "History", DecodeHistory, b)

		ids := decodeIDList(nil, framed(b, 0x00))
		if other := decodeIDList(nil, framed(b, 0xFF)); !slices.Equal(ids, other) {
			t.Errorf("id list: decoding %x read past the row: %v with zeros behind it, %v with ones", b, ids, other)
		}
		if len(ids) > len(b) {
			t.Errorf("id list: %d ids out of %d bytes", len(ids), len(b))
		}
		if back := decodeIDList(nil, encodeIDList(ids)); !slices.Equal(back, ids) {
			t.Errorf("id list: %v re-encodes to %v", ids, back)
		}
		if kept := decodeIDList([]int64{-7}, b); len(kept) != len(ids)+1 || kept[0] != -7 {
			t.Errorf("id list: decoding into a scratch that holds one id gave %v, want it kept in front of %v", kept, ids)
		}
	})
}
