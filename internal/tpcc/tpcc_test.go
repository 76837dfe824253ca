package tpcc

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"xssd/internal/btree"
	"xssd/internal/db"
	"xssd/internal/sim"
	"xssd/internal/wal"
)

type nullSink struct{ bytes int64 }

func (s *nullSink) Write(p *sim.Proc, d []byte) error {
	s.bytes += int64(len(d))
	return nil
}
func (s *nullSink) Name() string { return "null" }

func smallConfig() Config {
	return Config{Warehouses: 2, Districts: 4, CustomersPerDistrict: 30, Items: 50, FillerLen: 8}
}

func loadedEngine(env *sim.Env, cfg Config) (*db.Engine, *nullSink) {
	sink := &nullSink{}
	log := wal.NewLog(env, sink, wal.Config{GroupBytes: 4096, GroupTimeout: 100 * time.Microsecond})
	eng := db.New(env, log)
	Load(eng, cfg, 1)
	return eng, sink
}

func TestLoadPopulatesAllTables(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := smallConfig()
	eng, _ := loadedEngine(env, cfg)
	if got := eng.RowCount(TWarehouse); got != cfg.Warehouses {
		t.Fatalf("warehouses = %d", got)
	}
	if got := eng.RowCount(TDistrict); got != cfg.Warehouses*cfg.Districts {
		t.Fatalf("districts = %d", got)
	}
	if got := eng.RowCount(TCustomer); got != cfg.Warehouses*cfg.Districts*cfg.CustomersPerDistrict {
		t.Fatalf("customers = %d", got)
	}
	if got := eng.RowCount(TItem); got != cfg.Items {
		t.Fatalf("items = %d", got)
	}
	if got := eng.RowCount(TStock); got != cfg.Warehouses*cfg.Items {
		t.Fatalf("stock = %d", got)
	}
}

func TestRowCodecsRoundTrip(t *testing.T) {
	w := Warehouse{Name: "wh", Tax: 1234, YTD: -99}
	if got := DecodeWarehouse(w.Encode()); got != w {
		t.Fatalf("warehouse: %+v", got)
	}
	d := District{Name: "d", Tax: 5, YTD: 10, NextOID: 42, NextDelivery: 7}
	if got := DecodeDistrict(d.Encode()); got != d {
		t.Fatalf("district: %+v", got)
	}
	c := Customer{First: "a", Last: "BARBARBAR", Credit: "BC", Discount: 1, Balance: -5000, YTDPayment: 3, PaymentCnt: 2, DeliveryCnt: 1, Data: "xyz"}
	if got := DecodeCustomer(c.Encode()); got != c {
		t.Fatalf("customer: %+v", got)
	}
	s := Stock{Qty: 50, YTD: 7, OrderCnt: 3, RemoteCnt: 1, Dist: "dd", Data: "zz"}
	if got := DecodeStock(s.Encode()); got != s {
		t.Fatalf("stock: %+v", got)
	}
	o := Order{CID: 9, EntryD: 1000, Carrier: 3, OLCnt: 11, AllLocal: true}
	if got := DecodeOrder(o.Encode()); got != o {
		t.Fatalf("order: %+v", got)
	}
	ol := OrderLine{IID: 1, SupplyW: 2, Qty: 3, Amount: 400, DeliveryD: 5, DistInfo: "info"}
	if got := DecodeOrderLine(ol.Encode()); got != ol {
		t.Fatalf("orderline: %+v", got)
	}
	h := History{CID: 1, Amount: 2, Date: 3, Data: "h"}
	if got := DecodeHistory(h.Encode()); got != h {
		t.Fatalf("history: %+v", got)
	}
	i := Item{Name: "n", Price: 100, Data: "d"}
	if got := DecodeItem(i.Encode()); got != i {
		t.Fatalf("item: %+v", got)
	}
}

func TestLastNameSyllables(t *testing.T) {
	if LastName(0) != "BARBARBAR" {
		t.Fatalf("LastName(0) = %s", LastName(0))
	}
	if LastName(371) != "PRICALLYOUGHT" {
		t.Fatalf("LastName(371) = %s", LastName(371))
	}
	if LastName(999) != "EINGEINGEING" {
		t.Fatalf("LastName(999) = %s", LastName(999))
	}
}

func TestNURandWithinBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			v := nuRand(rng, 1023, cCID, 1, 3000)
			if v < 1 || v > 3000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewOrderCreatesOrderRows(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := smallConfig()
	eng, sink := loadedEngine(env, cfg)
	client := NewClient(eng, cfg, 2, 1)
	ok := false
	env.Go("terminal", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if err := client.RunOne(p, NewOrderTx); err != nil {
				t.Errorf("new-order %d: %v", i, err)
				return
			}
		}
		ok = true
	})
	env.RunUntil(time.Second)
	if !ok {
		t.Fatal("terminal did not finish")
	}
	if eng.RowCount(TOrder) == 0 || eng.RowCount(TOrderLine) == 0 {
		t.Fatal("no orders created")
	}
	if sink.bytes == 0 {
		t.Fatal("no log volume generated")
	}
	counts, _, _ := client.Counts()
	if counts[NewOrderTx] != 20 {
		t.Fatalf("committed new-orders = %d", counts[NewOrderTx])
	}
}

func TestPaymentUpdatesBalances(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := smallConfig()
	eng, _ := loadedEngine(env, cfg)
	client := NewClient(eng, cfg, 3, 1)
	env.Go("terminal", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if err := client.RunOne(p, PaymentTx); err != nil {
				t.Errorf("payment %d: %v", i, err)
			}
		}
	})
	env.RunUntil(time.Second)
	wRow, _ := eng.Read(TWarehouse, WKey(1))
	if DecodeWarehouse(wRow).YTD == 0 {
		t.Fatal("warehouse YTD unchanged after payments")
	}
	if eng.RowCount(THistory) == 0 {
		t.Fatal("no history rows")
	}
}

func TestDeliveryConsumesNewOrders(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := smallConfig()
	eng, _ := loadedEngine(env, cfg)
	client := NewClient(eng, cfg, 4, 1)
	env.Go("terminal", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			if err := client.RunOne(p, NewOrderTx); err != nil {
				t.Errorf("new-order: %v", err)
			}
		}
		before := eng.RowCount(TNewOrder)
		for i := 0; i < 5; i++ {
			if err := client.RunOne(p, DeliveryTx); err != nil {
				t.Errorf("delivery: %v", err)
			}
		}
		after := eng.RowCount(TNewOrder)
		if after >= before {
			t.Errorf("new_order rows %d -> %d: delivery consumed nothing", before, after)
		}
	})
	env.RunUntil(time.Second)
}

func TestReadOnlyProfilesCommit(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := smallConfig()
	eng, _ := loadedEngine(env, cfg)
	client := NewClient(eng, cfg, 5, 2)
	env.Go("terminal", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			client.RunOne(p, NewOrderTx)
		}
		for i := 0; i < 10; i++ {
			if err := client.RunOne(p, OrderStatusTx); err != nil {
				t.Errorf("order-status: %v", err)
			}
			if err := client.RunOne(p, StockLevelTx); err != nil {
				t.Errorf("stock-level: %v", err)
			}
		}
	})
	env.RunUntil(time.Second)
}

func TestMixRoughlyMatchesSpec(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := smallConfig()
	eng, _ := loadedEngine(env, cfg)
	client := NewClient(eng, cfg, 6, 1)
	var picks [5]int
	for i := 0; i < 10000; i++ {
		picks[client.PickType()]++
	}
	if picks[NewOrderTx] < 4200 || picks[NewOrderTx] > 4800 {
		t.Fatalf("new-order share = %d/10000", picks[NewOrderTx])
	}
	if picks[PaymentTx] < 4000 || picks[PaymentTx] > 4600 {
		t.Fatalf("payment share = %d/10000", picks[PaymentTx])
	}
	for _, tt := range []TxType{OrderStatusTx, DeliveryTx, StockLevelTx} {
		if picks[tt] < 250 || picks[tt] > 550 {
			t.Fatalf("%v share = %d/10000", tt, picks[tt])
		}
	}
	_ = eng
}

func TestConcurrentTerminalsConflictButProgress(t *testing.T) {
	env := sim.NewEnv(9)
	cfg := smallConfig()
	eng, _ := loadedEngine(env, cfg)
	var clients []*Client
	for w := 0; w < 4; w++ {
		client := NewClient(eng, cfg, int64(100+w), w%cfg.Warehouses+1)
		clients = append(clients, client)
		env.Go("terminal", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				client.RunMix(p)
			}
		})
	}
	env.RunUntil(10 * time.Second)
	var committed, aborted int64
	for _, c := range clients {
		counts, ab, _ := c.Counts()
		for _, n := range counts {
			committed += n
		}
		aborted += ab
	}
	if committed < 150 {
		t.Fatalf("committed only %d of 200", committed)
	}
	if aborted > 50 {
		t.Fatalf("aborts = %d, too many", aborted)
	}
}

func TestFullMixReplaysIdenticallyOnFollower(t *testing.T) {
	env := sim.NewEnv(11)
	cfg := smallConfig()
	sink := &nullSink{}
	log := wal.NewLog(env, sink, wal.Config{GroupBytes: 2048, GroupTimeout: 100 * time.Microsecond})
	eng := db.New(env, log)
	Load(eng, cfg, 1)

	// capture the log stream
	var stream []byte
	captured := &captureSink{out: &stream}
	log2 := wal.NewLog(env, captured, wal.Config{GroupBytes: 2048, GroupTimeout: 100 * time.Microsecond})
	eng2 := db.New(env, log2)
	Load(eng2, cfg, 1)
	client := NewClient(eng2, cfg, 7, 1)
	env.Go("terminal", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			client.RunMix(p)
		}
	})
	env.RunUntil(time.Minute)

	// replay onto a fresh copy of the initial state
	replica := db.New(env, nil)
	Load(replica, cfg, 1)
	follower := db.NewFollower(replica)
	if err := follower.Feed(stream); err != nil {
		t.Fatal(err)
	}
	if replica.Fingerprint() != eng2.Fingerprint() {
		t.Fatal("replayed replica diverged from primary")
	}
}

type captureSink struct{ out *[]byte }

func (s *captureSink) Write(p *sim.Proc, d []byte) error {
	*s.out = append(*s.out, d...)
	return nil
}
func (s *captureSink) Name() string { return "capture" }

// TestRunMixWaitsWhereCommitDid runs the same terminals on two twin
// WAL-backed engines: one acknowledges through RunMix, the other through
// RunMixAsync followed by WaitDurable on the returned LSN. Moving the
// durability wait from inside the commit to after the profile must change
// nothing a run can observe: every acknowledgement instant and outcome,
// the events dispatched, the log bytes and the final rows.
func TestRunMixWaitsWhereCommitDid(t *testing.T) {
	type outcome struct {
		at  time.Duration
		err string
	}
	type run struct {
		acks   [][]outcome
		events int64
		stream []byte
		fp     uint64
	}
	const terminals, txns = 4, 60
	twin := func(async bool) run {
		env := sim.NewEnv(13)
		cfg := smallConfig()
		var r run
		log := wal.NewLog(env, &captureSink{out: &r.stream}, wal.Config{GroupBytes: 2048, GroupTimeout: 100 * time.Microsecond})
		eng := db.New(env, log)
		Load(eng, cfg, 1)
		r.acks = make([][]outcome, terminals)
		for w := 0; w < terminals; w++ {
			w := w
			client := NewClient(eng, cfg, int64(300+w), w%cfg.Warehouses+1)
			env.Go("terminal", func(p *sim.Proc) {
				for i := 0; i < txns; i++ {
					p.Sleep(time.Duration(20+w) * time.Microsecond)
					var err error
					if async {
						var lsn int64
						if lsn, err = client.RunMixAsync(p); err == nil && lsn > 0 {
							log.WaitDurable(p, lsn)
						}
					} else {
						_, err = client.RunMix(p)
					}
					o := outcome{at: p.Now()}
					if err != nil {
						o.err = err.Error()
					}
					r.acks[w] = append(r.acks[w], o)
				}
			})
		}
		env.RunUntil(10 * time.Second)
		r.events, r.fp = env.Events(), eng.Fingerprint()
		return r
	}
	sync, async := twin(false), twin(true)
	for w := range sync.acks {
		if len(sync.acks[w]) != txns {
			t.Fatalf("terminal %d finished %d of %d transactions", w, len(sync.acks[w]), txns)
		}
	}
	if !reflect.DeepEqual(sync.acks, async.acks) {
		t.Fatalf("acknowledgements differ:\nRunMix      %v\nRunMixAsync %v", sync.acks, async.acks)
	}
	if sync.events != async.events {
		t.Fatalf("events: RunMix %d, RunMixAsync %d", sync.events, async.events)
	}
	if len(sync.stream) == 0 || !bytes.Equal(sync.stream, async.stream) {
		t.Fatalf("log streams differ: %d and %d bytes", len(sync.stream), len(async.stream))
	}
	if sync.fp != async.fp {
		t.Fatalf("fingerprints: RunMix %#x, RunMixAsync %#x", sync.fp, async.fp)
	}
}

// TestLoadGivesOneTreeLayoutPerSeed loads the same (cfg, seed) into fresh
// paged engines and requires byte-identical checkpoint images: a B+tree's
// page layout depends on insert order, so any map-order leak in the loader
// shows up here as differing pages.
func TestLoadGivesOneTreeLayoutPerSeed(t *testing.T) {
	snapshot := func() db.Checkpoint {
		pager := btree.NewPager(btree.NewMemStore(1024, 1<<20), btree.Config{PoolPages: 16})
		eng := db.NewPaged(sim.NewEnv(1), nil, pager)
		Load(eng, smallConfig(), 7)
		ck, err := eng.BeginCheckpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}
	want := snapshot()
	for i := 0; i < 5; i++ {
		got := snapshot()
		if !reflect.DeepEqual(got.Tables, want.Tables) || len(got.Snap.Images) != len(want.Snap.Images) {
			t.Fatalf("load %d: %d pages, roots %v; first load %d pages, roots %v",
				i, len(got.Snap.Images), got.Tables, len(want.Snap.Images), want.Tables)
		}
		for j, img := range got.Snap.Images {
			if w := want.Snap.Images[j]; img.ID != w.ID || !bytes.Equal(img.Data, w.Data) {
				t.Fatalf("load %d: page image %d (id %d) differs from the first load's (id %d)", i, j, img.ID, w.ID)
			}
		}
	}
}
