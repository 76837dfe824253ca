package db

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xssd/internal/btree"
	"xssd/internal/sim"
	"xssd/internal/wal"
)

// buildPage is the page size of the build tests: 1 024 bytes, 990 of them
// cells, so a few hundred rows make a two-level tree.
const buildPage = 1024

func newBuildEngine() *Engine {
	return NewPaged(sim.NewEnv(1), nil, btree.NewPager(btree.NewMemStore(buildPage, 1<<24), btree.Config{PoolPages: 1024}))
}

// buildRows is one load for the build tests: n rows of 24 to 60 bytes in
// three tables, under decimal keys that do not sort in id order ("r10"
// before "r2"), as TPC-C's do.
func buildRows(n int) []stagedRow {
	rng := rand.New(rand.NewSource(int64(n)))
	rows := make([]stagedRow, n)
	for i := range rows {
		rows[i] = stagedRow{
			key: fmt.Sprintf("%c:r%d", "abc"[i%3], i),
			val: bytes.Repeat([]byte{byte('a' + i%26)}, 24+rng.Intn(37)),
		}
	}
	return rows
}

// loadRows creates tables a, b and c in that order, as a loader names its
// schema before it loads, then loads rows in the order given.
func loadRows(e *Engine, rows []stagedRow) {
	for _, name := range []string{"a", "b", "c"} {
		e.CreateTable(name)
	}
	for _, r := range rows {
		e.LoadRow(r.key[:1], r.key, r.val)
	}
}

// TestBuildIgnoresLoadOrder loads one row set in five shuffled orders: the
// built tables must checkpoint to the same pages, ids and bytes, and hold
// what a row map loaded with the same rows holds.
func TestBuildIgnoresLoadOrder(t *testing.T) {
	rows := buildRows(900)
	ref := New(sim.NewEnv(1), nil)
	loadRows(ref, rows)
	var want Checkpoint
	rng := rand.New(rand.NewSource(5))
	for i := range 5 {
		e := newBuildEngine()
		loadRows(e, rows)
		ck, err := e.BeginCheckpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		if fp, rfp := e.Fingerprint(), ref.Fingerprint(); fp != rfp {
			t.Fatalf("order %d: built engine %016x, row map %016x", i, fp, rfp)
		}
		if i == 0 {
			want = ck
		} else if !reflect.DeepEqual(ck.Tables, want.Tables) || ck.Snap.NextID != want.Snap.NextID || len(ck.Snap.Images) != len(want.Snap.Images) {
			t.Fatalf("order %d: %d pages, roots %v; first order %d pages, roots %v", i, ck.Snap.NextID, ck.Tables, want.Snap.NextID, want.Tables)
		} else {
			for j, img := range ck.Snap.Images {
				if w := want.Snap.Images[j]; img.ID != w.ID || !bytes.Equal(img.Data, w.Data) {
					t.Fatalf("order %d: page image %d (id %d) differs from the first order's (id %d)", i, j, img.ID, w.ID)
				}
			}
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	}
	if want.Snap.NextID < 3*4 {
		t.Fatalf("the load built %d pages; the test needs tables of several leaves", want.Snap.NextID)
	}
}

// leafBytes returns the cell bytes of every leaf image in ck, in page id
// order, read from the page header btree/page.go lays out: the kind at
// byte 6, the cell-area length at [26:28).
func leafBytes(ck Checkpoint) []int {
	var out []int
	for _, img := range ck.Snap.Images {
		if img.Data[6] == 1 {
			out = append(out, int(binary.LittleEndian.Uint16(img.Data[26:28])))
		}
	}
	return out
}

// TestBuiltTableIsDense builds one table per case and checks it: the tree
// passes CheckInvariants, it holds the rows the load left (the last row
// loaded under a key wins), and every leaf but the last, which is the one
// with the highest page id when every insert extended the tree at its
// right end, ends within one cell of runFill eighths full.
func TestBuiltTableIsDense(t *testing.T) {
	cellArea := buildPage - 34
	limit := stagedRow{key: "limit", val: bytes.Repeat([]byte{'L'}, cellArea/3-13-len("limit"))}
	many := buildRows(600)
	for i := range many {
		many[i].key = "a" + many[i].key[1:]
	}
	for _, tc := range []struct {
		name string
		rows []stagedRow
	}{
		{"empty", nil},
		{"one row", []stagedRow{{"k", []byte("v")}}},
		{"repeated key", []stagedRow{{"k2", []byte("old")}, {"k1", []byte("x")}, {"k2", []byte("new")}, {"k3", nil}, {"k2", []byte("newest")}}},
		{"row at the admission limit", []stagedRow{{"k1", []byte("x")}, limit, {"m", []byte("y")}}},
		{"many rows", append(many, limit, many[7])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newBuildEngine()
			e.CreateTable("t")
			ref := New(sim.NewEnv(1), nil)
			ref.CreateTable("t")
			cell := 0
			for _, r := range tc.rows {
				e.LoadRow("t", r.key, r.val)
				ref.LoadRow("t", r.key, r.val)
				cell = max(cell, 13+len(r.key)+len(r.val))
			}
			ck, err := e.BeginCheckpoint(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.tables["t"].rows.(*btree.Tree).CheckInvariants(nil); err != nil {
				t.Fatal(err)
			}
			if got, want := dump(t, e), dump(t, ref); got != want {
				t.Fatalf("built table holds\n%s\nthe row map holds\n%s", got, want)
			}
			leaves := leafBytes(ck)
			reserve := cellArea * 7 / 8
			for i, n := range leaves[:len(leaves)-1] {
				if n > reserve || n+cell <= reserve {
					t.Errorf("leaf %d of %d holds %d bytes, want within one %d-byte cell under %d", i, len(leaves), n, cell, reserve)
				}
			}
		})
	}
}

// TestBuiltRowsGrowWithoutSplitting builds a table of order-line-shaped
// rows, loaded in id order under TPC-C's decimal keys, with 50-byte cells,
// then grows every row by 7 bytes as Delivery's date does, ten rows to a
// transaction: the growth reserve takes it all, and no page splits.
func TestBuiltRowsGrowWithoutSplitting(t *testing.T) {
	e := NewPaged(sim.NewEnv(1), nil, btree.NewPager(btree.NewMemStore(4096, 1<<24), btree.Config{PoolPages: 1024}))
	var keys []string
	for o := 1; o <= 300; o++ {
		for n := 1; n <= 10; n++ {
			keys = append(keys, fmt.Sprintf("ol:1:1:%d:%d", o, n))
		}
	}
	val := func(key string, grow int) []byte { return bytes.Repeat([]byte{'v'}, 50-13-len(key)+grow) }
	for _, k := range keys {
		e.LoadRow("order_line", k, val(k, 0))
	}
	before, err := e.BeginCheckpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	tab := e.Table("order_line")
	for lo := 0; lo < len(keys); lo += 10 {
		tx := e.Begin()
		for _, k := range keys[lo : lo+10] {
			tx.PutOwnedIn(tab, k, val(k, 7))
		}
		if err := tx.Commit(nil); err != nil {
			t.Fatal(err)
		}
	}
	after, err := e.BeginCheckpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.t.rows.(*btree.Tree).CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
	if before.Snap.NextID != after.Snap.NextID {
		t.Errorf("growing every row by 7 bytes took the tree from %d to %d pages", before.Snap.NextID, after.Snap.NextID)
	}
	if len(leafBytes(before)) < 10 {
		t.Fatalf("%d leaves; the test needs a table of many", len(leafBytes(before)))
	}
}

// TestLoadRowRefusesAnOversizeRowAtOnce holds LoadRow's documented panic
// on a paged engine, which stages the row: the row is refused when it is
// loaded, not when the table is built.
func TestLoadRowRefusesAnOversizeRowAtOnce(t *testing.T) {
	e := newBuildEngine()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), btree.ErrTooLarge.Error()) {
			t.Fatalf("LoadRow of an oversize row: recovered %v, want a panic naming %v", r, btree.ErrTooLarge)
		}
	}()
	e.LoadRow("t", "k", make([]byte, buildPage))
}

// TestEveryReaderBuilds loads a row into a fresh paged engine and calls
// one engine entry point that reads rows, writes them or cuts a
// checkpoint: each must find the row, so each must have built the table.
func TestEveryReaderBuilds(t *testing.T) {
	var rec []wal.Record
	{
		e := New(sim.NewEnv(1), nil)
		e.CreateTable("t")
		tx := e.Begin()
		tx.PutOwnedIn(e.Table("t"), "written", []byte("w"))
		payload := e.encodeScratch(tx.writes)
		rec = append(rec, wal.Record{LSN: 0, TxID: 1, Payload: slices.Clone(payload)})
	}
	for name, call := range map[string]func(e *Engine){
		"BeginIn":         func(e *Engine) { e.BeginIn(new(Tx), nil).Abort() },
		"ReadIn":          func(e *Engine) { e.ReadIn(nil, "t", "other") },
		"FingerprintIn":   func(e *Engine) { e.FingerprintIn(nil) },
		"RowCountIn":      func(e *Engine) { e.RowCountIn(nil, "t") },
		"BeginCheckpoint": func(e *Engine) { _, _ = e.BeginCheckpoint(nil) },
		"Replay":          func(e *Engine) { _, _ = e.Replay(nil, rec, 0, nil) },
		"Follower.Feed":   func(e *Engine) { _ = NewFollower(e).Feed(rec[0].Encode(nil)) },
	} {
		e := newBuildEngine()
		e.LoadRow("t", "loaded", []byte("v"))
		call(e)
		if e.staged {
			t.Errorf("%s left the load staged", name)
		}
		if it, ok, err := e.tables["t"].rows.Get(nil, "loaded"); err != nil || !ok || string(it.Val) != "v" {
			t.Errorf("after %s the tree holds %q, %v, %v; want the loaded row", name, it.Val, ok, err)
		}
	}
}
