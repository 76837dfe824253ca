package xssd

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"xssd/internal/nand"
)

func TestPublicQuickstartPath(t *testing.T) {
	sys := NewSystem(1)
	dev := sys.MustDevice(DeviceOptions{Name: "q", Backing: SRAM})
	msg := []byte("public API commit record")
	var got []byte
	sys.Run(func(p *Proc) {
		log := dev.OpenLog(p)
		off := log.Pwrite(p, msg)
		if off != 0 {
			t.Errorf("first write at offset %d", off)
		}
		if err := log.Fsync(p); err != nil {
			t.Errorf("fsync: %v", err)
		}
		if log.Written() != int64(len(msg)) {
			t.Errorf("written = %d", log.Written())
		}
		reader := dev.OpenLog(p)
		buf := make([]byte, len(msg))
		if _, err := reader.Pread(p, buf); err != nil {
			t.Errorf("pread: %v", err)
		}
		got = buf
	})
	if !bytes.Equal(got, msg) {
		t.Fatalf("tail read %q, want %q", got, msg)
	}
}

func TestPublicClusterReplication(t *testing.T) {
	sys := NewSystem(2)
	a := sys.MustDevice(DeviceOptions{Name: "a"})
	b := sys.MustDevice(DeviceOptions{Name: "b"})
	cluster, err := sys.NewCluster(a, b)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(func(p *Proc) {
		if err := cluster.Setup(p, 0, Eager); err != nil {
			t.Fatalf("setup: %v", err)
		}
		log := a.OpenLog(p)
		log.Pwrite(p, make([]byte, 2048))
		if err := log.Fsync(p); err != nil {
			t.Fatalf("fsync: %v", err)
		}
		// Eager fsync returned: the secondary must be caught up.
		for i, lag := range cluster.Lag() {
			if lag != 0 {
				t.Errorf("secondary %d lag = %d after eager fsync", i, lag)
			}
		}
	})
	if cluster.PrimaryName() != "a" {
		t.Fatalf("primary = %q", cluster.PrimaryName())
	}
}

func TestPublicFailover(t *testing.T) {
	sys := NewSystem(3)
	a := sys.MustDevice(DeviceOptions{Name: "a"})
	b := sys.MustDevice(DeviceOptions{Name: "b"})
	cluster, err := sys.NewCluster(a, b)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(func(p *Proc) {
		if err := cluster.Setup(p, 0, Eager); err != nil {
			t.Fatalf("setup: %v", err)
		}
		log := a.OpenLog(p)
		log.Pwrite(p, make([]byte, 512))
		log.Fsync(p)
		a.InjectPowerLoss()
		if err := cluster.Promote(p, 1); err != nil {
			t.Fatalf("promote: %v", err)
		}
	})
	if cluster.PrimaryName() != "b" {
		t.Fatalf("primary after failover = %q", cluster.PrimaryName())
	}
	sys.RunFor(200 * time.Millisecond)
	if !a.Drained() {
		t.Fatal("dead primary did not drain")
	}
}

// TestClusterChainSetupWiresAChain: Setup with Chain links a -> b -> c.
// The head has one peer, its successor, and Fsync returns only once the
// tail holds every byte written.
func TestClusterChainSetupWiresAChain(t *testing.T) {
	sys := NewSystem(16)
	a := sys.MustDevice(DeviceOptions{Name: "a"})
	b := sys.MustDevice(DeviceOptions{Name: "b"})
	c := sys.MustDevice(DeviceOptions{Name: "c"})
	cluster, err := sys.NewCluster(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(func(p *Proc) {
		if err := cluster.Setup(p, 0, Chain); err != nil {
			t.Fatalf("setup: %v", err)
		}
		if n := a.Raw().Transport().Peers(); n != 1 {
			t.Errorf("head peers = %d, want 1 (its successor)", n)
		}
		log := a.OpenLog(p)
		for i := 0; i < 8; i++ {
			log.Pwrite(p, make([]byte, 512))
			if err := log.Fsync(p); err != nil {
				t.Fatalf("fsync: %v", err)
			}
			if tail := c.Raw().CMB().Ring().Frontier(); tail < log.Written() {
				t.Fatalf("fsync %d returned with the tail at %d of %d bytes", i, tail, log.Written())
			}
		}
	})
	if lag := cluster.Lag(); len(lag) != 1 {
		t.Fatalf("lag has %d entries, want the successor's alone", len(lag))
	}
}

func TestPublicAdvancedAPI(t *testing.T) {
	sys := NewSystem(4)
	dev := sys.MustDevice(DeviceOptions{Name: "adv"})
	sys.Run(func(p *Proc) {
		log := dev.OpenLog(p)
		start, err := log.Alloc(p, 128)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		for i, off := range []int64{start + 64, start} {
			if err := log.WriteAt(p, off, bytes.Repeat([]byte{byte(2 - i)}, 64)); err != nil {
				t.Fatalf("write at %d: %v", off, err)
			}
		}
		if err := log.Free(p, start); err != nil {
			t.Fatalf("free: %v", err)
		}
		// After free, the data destages; the tail reader sees it in order.
		reader := dev.OpenLog(p)
		buf := make([]byte, 128)
		if _, err := reader.Pread(p, buf); err != nil {
			t.Fatalf("pread: %v", err)
		}
		if buf[0] != 1 || buf[64] != 2 {
			t.Fatal("allocation contents out of order")
		}
	})
}

// TestWriteAtRejectsOffsetsOutsideTheWindow: WriteAt's offset is caller
// input, so one outside the CMB window is an error, not a dead run, and the
// log stays usable after it.
func TestWriteAtRejectsOffsetsOutsideTheWindow(t *testing.T) {
	sys := NewSystem(4)
	dev := sys.MustDevice(DeviceOptions{Name: "win"})
	sys.Run(func(p *Proc) {
		log := dev.OpenLog(p)
		start, err := log.Alloc(p, 64)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		buf := bytes.Repeat([]byte{7}, 64)
		for _, off := range []int64{-64, -1, 1 << 40, 1<<40 - 63, 1 << 41} {
			if err := log.WriteAt(p, off, buf); err == nil {
				t.Errorf("WriteAt(%d, 64 bytes) accepted", off)
			}
		}
		if err := log.WriteAt(p, start, buf); err != nil {
			t.Fatalf("WriteAt inside the area: %v", err)
		}
		if err := log.Free(p, start); err != nil {
			t.Fatalf("free: %v", err)
		}
		got := make([]byte, 64)
		if _, err := dev.OpenLog(p).Pread(p, got); err != nil {
			t.Fatalf("pread: %v", err)
		}
		if !bytes.Equal(got, buf) {
			t.Fatal("area contents lost after the rejected writes")
		}
	})
}

func TestPublicCrashConsistency(t *testing.T) {
	sys := NewSystem(5)
	dev := sys.MustDevice(DeviceOptions{Name: "crash"})
	var written int64
	sys.Run(func(p *Proc) {
		log := dev.OpenLog(p)
		log.Pwrite(p, make([]byte, 3000))
		if err := log.Fsync(p); err != nil {
			t.Fatalf("fsync: %v", err)
		}
		written = log.Written()
		dev.InjectPowerLoss()
	})
	sys.RunFor(200 * time.Millisecond)
	if !dev.Drained() {
		t.Fatal("device did not drain after power loss")
	}
	if got := dev.Stats().Destage.Stream; got < written {
		t.Fatalf("destaged %d < acked %d: durability violated", got, written)
	}
}

func TestPublicDestagePolicyOption(t *testing.T) {
	sys := NewSystem(6)
	dev := sys.MustDevice(DeviceOptions{Name: "pol", Policy: ConventionalPriority})
	if dev.Stats().Sched.Policy != ConventionalPriority.String() {
		t.Fatal("policy option not applied")
	}
}

func TestPublicDRAMBacking(t *testing.T) {
	sys := NewSystem(7)
	dev := sys.MustDevice(DeviceOptions{Name: "dram", Backing: DRAM})
	sys.Run(func(p *Proc) {
		log := dev.OpenLog(p)
		log.Pwrite(p, make([]byte, 4096))
		if err := log.Fsync(p); err != nil {
			t.Fatalf("fsync on DRAM backing: %v", err)
		}
	})
}

func TestSystemClockAdvances(t *testing.T) {
	sys := NewSystem(8)
	if sys.Now() != 0 {
		t.Fatal("clock not at zero")
	}
	sys.RunFor(5 * time.Millisecond)
	if sys.Now() != 5*time.Millisecond {
		t.Fatalf("Now = %v", sys.Now())
	}
}

func TestPublicVirtualFunctions(t *testing.T) {
	sys := NewSystem(9)
	dev := sys.MustDevice(DeviceOptions{Name: "shared"})
	vf1, err := dev.NewVF("tenant1", 32<<10, 4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	vf2, err := dev.NewVF("tenant2", 32<<10, 4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(func(p *Proc) {
		l1 := vf1.OpenLog(p)
		l2 := vf2.OpenLog(p)
		l1.Pwrite(p, []byte("tenant one data"))
		l2.Pwrite(p, []byte("tenant two")) // independent stream offsets
		if err := l1.Fsync(p); err != nil {
			t.Errorf("vf1 fsync: %v", err)
		}
		if err := l2.Fsync(p); err != nil {
			t.Errorf("vf2 fsync: %v", err)
		}
		buf := make([]byte, 15)
		r := vf1.OpenLog(p)
		if _, err := r.Pread(p, buf); err != nil {
			t.Errorf("vf1 pread: %v", err)
		}
		if string(buf) != "tenant one data" {
			t.Errorf("vf1 read %q", buf)
		}
	})
	if vf1.Name() != "shared/tenant1" {
		t.Fatalf("vf name = %q", vf1.Name())
	}
}

func TestPublicTracing(t *testing.T) {
	sys := NewSystem(10)
	dev := sys.MustDevice(DeviceOptions{Name: "tr"})
	tr := dev.EnableTracing(128)
	sys.Run(func(p *Proc) {
		log := dev.OpenLog(p)
		log.Pwrite(p, []byte("traced write"))
		log.Fsync(p)
	})
	if tr.Total() == 0 {
		t.Fatal("no events traced")
	}
}

func TestNewDeviceValidation(t *testing.T) {
	sys := NewSystem(11)
	cases := []struct {
		name string
		opts DeviceOptions
	}{
		{"empty name", DeviceOptions{}},
		{"negative queue", DeviceOptions{Name: "d", QueueSize: -4096}},
		{"odd queue", DeviceOptions{Name: "d", QueueSize: 4097}},
		{"zero geometry", DeviceOptions{Name: "d", Geometry: &nand.Geometry{Channels: 8}}},
		{"geometry past the page bound", DeviceOptions{Name: "d", Geometry: &nand.Geometry{
			Channels: 1 << 10, WaysPerChan: 1 << 10, BlocksPerDie: 1 << 10, PagesPerBlock: 4, PageSize: 512}}},
		{"negative shadow period", DeviceOptions{Name: "d", ShadowUpdatePeriod: -time.Microsecond}},
	}
	for _, c := range cases {
		d, err := sys.NewDevice(c.opts)
		if !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: err = %v, want ErrBadOptions", c.name, err)
		}
		if d != nil {
			t.Errorf("%s: returned a device alongside the error", c.name)
		}
	}
	if _, err := sys.NewDevice(DeviceOptions{Name: "ok", QueueSize: 8192}); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

func TestPublicTypedStats(t *testing.T) {
	sys := NewSystem(12)
	dev := sys.MustDevice(DeviceOptions{Name: "st"})
	vf, err := dev.NewVF("vf0", 32<<10, 4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(func(p *Proc) {
		log := sys.OpenLog(p, dev) // Device as LogTarget
		log.Pwrite(p, make([]byte, 4096))
		if err := log.Fsync(p); err != nil {
			t.Fatalf("fsync: %v", err)
		}
		vlog := sys.OpenLog(p, vf) // VF as LogTarget
		vlog.Pwrite(p, []byte("vf data"))
		if err := vlog.Fsync(p); err != nil {
			t.Fatalf("vf fsync: %v", err)
		}
	})
	sys.RunFor(10 * time.Millisecond)
	s := dev.Stats()
	if s.Name != "st" || s.CMB.BytesIn < 4096 || s.Destage.Stream < 4096 {
		t.Fatalf("device stats: %+v", s)
	}
	if len(s.VFs) != 1 || s.VFs[0].Name != "st/vf0" || s.VFs[0].CMB.BytesIn < 7 {
		t.Fatalf("vf stats via device: %+v", s.VFs)
	}
	if vs := vf.Stats(); vs.CMB.BytesIn != s.VFs[0].CMB.BytesIn {
		t.Fatalf("vf.Stats() disagrees with device view: %+v vs %+v", vs, s.VFs[0])
	}
	if s.NAND.Programs == 0 || s.Sched.Destage.Ops == 0 {
		t.Fatalf("nand/sched stats empty: %+v", s)
	}
}

func TestReserveScratchDisjoint(t *testing.T) {
	sys := NewSystem(13)
	a := sys.ReserveScratch(4096)
	b := sys.ReserveScratch(100)
	c := sys.ReserveScratch(4096)
	if a == 0 {
		t.Fatal("scratch allocator handed out offset 0")
	}
	if b < a+4096 || c < b+100 {
		t.Fatalf("scratch regions overlap: %d, %d, %d", a, b, c)
	}
}

// run drives a fixed workload and returns the encoded metrics snapshot.
func metricsRun(t *testing.T, seed int64) []byte {
	t.Helper()
	sys := NewSystem(seed)
	a := sys.MustDevice(DeviceOptions{Name: "a"})
	b := sys.MustDevice(DeviceOptions{Name: "b"})
	cluster, err := sys.NewCluster(a, b)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(func(p *Proc) {
		if err := cluster.Setup(p, 0, Eager); err != nil {
			t.Fatal(err)
		}
		log := a.OpenLog(p)
		// Write sizes depend on the seed so distinct seeds yield distinct
		// traffic (the simulation itself only draws randomness on demand).
		for i := 0; i < 32; i++ {
			log.Pwrite(p, make([]byte, 512+int(seed%7)*128))
			if err := log.Fsync(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	sys.RunFor(20 * time.Millisecond)
	return sys.MetricsSnapshot().Encode()
}

func TestPublicMetricsDeterminism(t *testing.T) {
	one := metricsRun(t, 42)
	two := metricsRun(t, 42)
	if !bytes.Equal(one, two) {
		t.Fatal("same-seed runs produced different metrics snapshots")
	}
	if bytes.Equal(one, metricsRun(t, 43)) {
		t.Fatal("different seeds produced identical snapshots (suspicious)")
	}
}

func TestWriteMetricsFormats(t *testing.T) {
	sys := NewSystem(14)
	dev := sys.MustDevice(DeviceOptions{Name: "m"})
	sys.Run(func(p *Proc) {
		log := dev.OpenLog(p)
		log.Pwrite(p, make([]byte, 512))
		log.Fsync(p)
	})
	var j, txt bytes.Buffer
	if err := sys.WriteMetrics(&j, MetricsJSON); err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteMetrics(&txt, MetricsText); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(j.Bytes(), []byte(`"m/cmb/bytes_in"`)) {
		t.Fatalf("JSON snapshot missing device counters: %s", j.String())
	}
	if !bytes.Contains(txt.Bytes(), []byte("m/cmb/bytes_in")) {
		t.Fatal("text snapshot missing device counters")
	}
	if err := sys.WriteMetrics(&j, "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestQueueOptionsValidation(t *testing.T) {
	sys := NewSystem(13)
	cases := []struct {
		name string
		q    QueueOptions
	}{
		{"negative pairs", QueueOptions{Pairs: -1}},
		{"too many pairs", QueueOptions{Pairs: 257}},
		{"negative coalesce ops", QueueOptions{Pairs: 4, CoalesceOps: -2}},
		{"huge coalesce ops", QueueOptions{Pairs: 4, CoalesceOps: 5000}},
	}
	for _, c := range cases {
		q := c.q
		d, err := sys.NewDevice(DeviceOptions{Name: "d", Queues: &q})
		if !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: err = %v, want ErrBadOptions", c.name, err)
		}
		if d != nil {
			t.Errorf("%s: returned a device alongside the error", c.name)
		}
	}
	ok := &QueueOptions{Pairs: 4, CoalesceOps: 4}
	if _, err := sys.NewDevice(DeviceOptions{Name: "mq", Queues: ok}); err != nil {
		t.Fatalf("valid queue options rejected: %v", err)
	}
}

func TestPublicAsyncSubmitPollWait(t *testing.T) {
	sys := NewSystem(14)
	dev := sys.MustDevice(DeviceOptions{
		Name:    "async",
		Backing: SRAM,
		Queues:  &QueueOptions{Pairs: 2},
	})
	sys.Run(func(p *Proc) {
		log := dev.OpenLog(p)
		// Keep several records in flight, then wait on the newest token:
		// the total order makes every earlier one durable too.
		var toks []SyncToken
		for i := 0; i < 5; i++ {
			toks = append(toks, log.Submit(p, []byte("async commit record")))
		}
		if tok := log.SyncToken(); tok != toks[4] {
			t.Errorf("SyncToken() = %d, want the last Submit's token %d", tok, toks[4])
		}
		if err := log.Wait(p, toks[4]); err != nil {
			t.Errorf("wait: %v", err)
		}
		for i, tok := range toks {
			if !log.Poll(p, tok) {
				t.Errorf("token %d (%d) not durable after waiting on the newest", i, tok)
			}
		}
		// The blocking surface still works on the same handle.
		log.Pwrite(p, []byte("blocking record"))
		if err := log.Fsync(p); err != nil {
			t.Errorf("fsync: %v", err)
		}
	})
	if st := dev.Stats(); len(st.HostQueues) != 2 {
		t.Fatalf("device stats list %d host queues, want 2", len(st.HostQueues))
	}
}

func TestDefaultOptionsKeepClassicSingleQueue(t *testing.T) {
	sys := NewSystem(15)
	dev := sys.MustDevice(DeviceOptions{Name: "classic"})
	if st := dev.Stats(); len(st.HostQueues) != 1 {
		t.Fatalf("classic device reports %d host-queue entries, want one pair", len(st.HostQueues))
	}
}

// TestRunReturnsWhenFnCannotFinish: a Run whose fn waits on a Signal that
// nothing will broadcast must come back with an error once no event is left
// to wake it, instead of advancing virtual time for ever. A completing Run
// on the same System still returns nil.
func TestRunReturnsWhenFnCannotFinish(t *testing.T) {
	sys := NewSystem(17)
	dev := sys.MustDevice(DeviceOptions{Name: "stuck"})
	never := sys.Env().NewSignal()
	errc := make(chan error, 1)
	go func() {
		errc <- sys.Run(func(p *Proc) {
			log := dev.OpenLog(p)
			log.Pwrite(p, []byte("record"))
			if err := log.Fsync(p); err != nil {
				t.Errorf("fsync: %v", err)
			}
			p.Wait(never)
		})
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Run returned nil while fn is still blocked")
		}
		t.Logf("Run: %v", err)
	case <-time.After(20 * time.Second):
		t.Fatal("Run did not return within 20 s of wall time while fn waits on a Signal nobody broadcasts")
	}
	if err := sys.Run(func(p *Proc) { p.Sleep(time.Microsecond) }); err != nil {
		t.Fatalf("a completing Run returned %v", err)
	}
}
