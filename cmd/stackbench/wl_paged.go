package main

import (
	"fmt"
	"sort"
	"time"

	"xssd/internal/btree"
	"xssd/internal/ckpt"
	"xssd/internal/db"
	"xssd/internal/nand"
	"xssd/internal/obs"
	"xssd/internal/pm"
	"xssd/internal/sim"
	"xssd/internal/tpcc"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// tpcc_paged is the one workload larger than the program's own cache: the
// tables live in B+tree pages on the conventional side of the device that
// also takes the log, behind a buffer pool a quarter the size of the
// loaded tree, with a fuzzy checkpoint every 2 ms of virtual time. The
// NAND array is small enough that checkpoint page rewrites force garbage
// collection inside the window.
const (
	pagedTerminals    = 4
	pagedPoolPages    = 140  // ≈ ¼ of the pages resident after load (the run header prints both)
	pagedSlots        = 4096 // page ids × 2 shadow slots
	pagedHostMem      = 1 << 20
	pagedCkptInterval = 2 * time.Millisecond
	pagedDestageLBAs  = 12288
	pagedSink         = "plog"
)

func pagedDeviceConfig() villars.Config {
	cfg := villars.DefaultConfig("prim")
	cfg.Backing = pm.SRAMSpec
	if cfg.Backing.Capacity < 2<<20 {
		cfg.Backing.Capacity = 2 << 20
	}
	cfg.CMBSize = cfg.Backing.Capacity
	cfg.Geometry = nand.Geometry{Channels: 4, WaysPerChan: 4, BlocksPerDie: 20, PagesPerBlock: 64, PageSize: 4 << 10}
	cfg.QueueSize = 32 << 10
	cfg.DestageLBAs = pagedDestageLBAs
	return cfg
}

// timedStore times every call the pager makes into its device store, in
// virtual time: one page read, one window of up to eight page writes, or
// one flush. These are tpcc_paged's conventional-side commands as the
// engine experiences them (queueing on the store's gate included).
type timedStore struct {
	*btree.DeviceStore
	rec *recorder
}

// storeWindow is the DeviceStore's in-flight window: calling WriteBatch
// one window at a time is what the store does internally, so splitting
// here changes nothing but makes each window observable.
const storeWindow = 8

func (s *timedStore) Read(p *sim.Proc, slot int64, buf []byte) error {
	t0 := p.Now()
	err := s.DeviceStore.Read(p, slot, buf)
	s.rec.convOp("nvme.submit", t0, p.Now())
	return err
}

func (s *timedStore) Write(p *sim.Proc, slot int64, data []byte) error {
	return s.WriteBatch(p, []int64{slot}, [][]byte{data})
}

func (s *timedStore) WriteBatch(p *sim.Proc, slots []int64, images [][]byte) error {
	for i := 0; i < len(slots); i += storeWindow {
		end := i + storeWindow
		if end > len(slots) {
			end = len(slots)
		}
		t0 := p.Now()
		if err := s.DeviceStore.WriteBatch(p, slots[i:end], images[i:end]); err != nil {
			return err
		}
		s.rec.convOp("nvme.submit", t0, p.Now())
	}
	return nil
}

func (s *timedStore) Sync(p *sim.Proc) error {
	t0 := p.Now()
	err := s.DeviceStore.Sync(p)
	s.rec.convOp("nvme.submit", t0, p.Now())
	return err
}

// loadSorted populates a paged engine with the rows tpcc.Load generates,
// inserted table by table in ascending key order. tpcc.Load itself
// installs the customer-name index in map-iteration order, which is
// harmless for the row-map engine but makes a B+tree's page layout — and
// with it every later miss, checkpoint and commit time — differ from run
// to run for one seed (about 90 layouts in 200 loads). The determinism
// contract the virtual metrics rest on needs one layout per seed, so the
// rows are generated into a row-map engine first and copied over in a
// fixed order; the fingerprints of the two engines must then match.
func loadSorted(dst *db.Engine, cfg tpcc.Config, seed int64) error {
	src := db.New(sim.NewEnv(1), nil)
	tpcc.Load(src, cfg, seed)
	copyRow := func(table, key string) {
		if val, ok := src.Read(table, key); ok {
			dst.LoadRow(table, key, val)
		}
	}
	for _, t := range src.Tables() {
		dst.CreateTable(t)
	}
	for i := 1; i <= cfg.Items; i++ {
		copyRow(tpcc.TItem, tpcc.IKey(i))
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		copyRow(tpcc.TWarehouse, tpcc.WKey(w))
		for i := 1; i <= cfg.Items; i++ {
			copyRow(tpcc.TStock, tpcc.SKey(w, i))
		}
		for d := 1; d <= cfg.Districts; d++ {
			copyRow(tpcc.TDistrict, tpcc.DKey(w, d))
			var names []string
			for c := 1; c <= cfg.CustomersPerDistrict; c++ {
				key := tpcc.CKey(w, d, c)
				copyRow(tpcc.TCustomer, key)
				if val, ok := src.Read(tpcc.TCustomer, key); ok {
					names = append(names, tpcc.DecodeCustomer(val).Last)
				}
			}
			sort.Strings(names)
			for i, n := range names {
				if i == 0 || n != names[i-1] {
					copyRow(tpcc.TCustIdx, tpcc.CIdxKey(w, d, n))
				}
			}
		}
	}
	if got, want := dst.FingerprintIn(nil), src.Fingerprint(); got != want {
		return fmt.Errorf("sorted load %016x differs from tpcc.Load %016x: the loader's key space changed", got, want)
	}
	return nil
}

type pagedStack struct {
	simRunner
	cfg     config
	rec     *recorder
	tcfg    tpcc.Config
	dev     *villars.Device
	log     *wal.Log
	eng     *db.Engine
	mgr     *ckpt.Manager
	base    int64 // first LBA of the page slots
	clients []*tpcc.Client
	gens    loadGens
	maxAck  int64

	loadedPages int
	recovery    ckpt.Stats
}

func buildTPCCPaged(cfg config, rec *recorder) (instance, error) {
	s := &pagedStack{cfg: cfg, rec: rec, tcfg: tpcc.DefaultConfig()}
	env := sim.NewEnv(cfg.seed)
	s.envs = []*sim.Env{env}
	s.dev = newDevice(env, pagedDeviceConfig(), pagedHostMem)

	var bootErr error
	booted := false
	env.Go("boot", func(p *sim.Proc) {
		defer func() { booted = true }()
		s.log = wal.NewLog(env, wal.NewVillarsSink(p, s.dev, pagedSink),
			wal.Config{GroupBytes: 4 << 10, GroupTimeout: 50 * time.Microsecond})
		if s.base, bootErr = s.dev.AllocLBARange(pagedSlots); bootErr != nil {
			return
		}
		scratch := int64(pagedHostMem) - btree.DeviceScratchSize(s.dev.BlockSize())
		store := &timedStore{DeviceStore: btree.NewDeviceStore(s.dev, s.base, pagedSlots, scratch), rec: rec}
		reg := obs.For(env)
		pager := btree.NewPager(store, btree.Config{PoolPages: pagedPoolPages, Scope: reg.Scope(s.dev.Name() + "/pager")})
		s.eng = db.NewPaged(env, s.log, pager)
		s.mgr = ckpt.NewManager(s.eng, s.log, ckpt.Config{Interval: pagedCkptInterval, Scope: reg.Scope(s.dev.Name() + "/ckpt")})
		if bootErr = loadSorted(s.eng, s.tcfg, loadSeed(cfg.seed)); bootErr != nil {
			return
		}
		s.loadedPages = pager.Resident()
		// Bulk-loaded pages are all dirty and cannot be evicted; the first
		// checkpoint writes them out so the pool cap holds from the first
		// transaction on.
		if _, bootErr = s.mgr.RunOnce(p); bootErr != nil {
			return
		}
		env.Go("ckpt", s.mgr.Run)
		s.startTerminals(env)
	})
	for i := 0; i < 100 && !booted; i++ {
		s.runUntil(s.now() + 10*time.Millisecond)
	}
	if !booted {
		s.close()
		return nil, fmt.Errorf("bring-up (load + first checkpoint) did not finish in 1s of virtual time")
	}
	if bootErr != nil {
		s.close()
		return nil, bootErr
	}
	return s, nil
}

// startTerminals releases pagedTerminals closed-loop workers with
// synchronous group commit: each waits for its own redo record to be
// durable before its next transaction.
//
// The terminals take turns executing (compute and durable waits still
// overlap). btree.Pager.fetch has no single-flight: two processes that
// miss on one page each read it and each install a frame, the second
// replacing the first in the pager's table, and an update a committer then
// makes through the orphaned frame is never checkpointed and never seen by
// later readers. With four free-running terminals at this pool size the
// live engine diverged from its own log on 3 of 9 seeds. The benchmark
// must not fail its own correctness check, so until the pager is fixed
// only one terminal is inside the engine at a time; removing this gate
// belongs to the issue that fixes the pager and will show up here as
// kcommits_per_vs.
func (s *pagedStack) startTerminals(env *sim.Env) {
	inEngine := false
	left := env.NewSignal()
	for w := 0; w < pagedTerminals; w++ {
		client := tpcc.NewClient(s.eng, s.tcfg, clientSeed(s.cfg.seed, w), w%s.tcfg.Warehouses+1)
		s.clients = append(s.clients, client)
		rng := terminalRand(s.cfg.seed, w)
		s.gens.spawn(env, fmt.Sprintf("terminal-%d", w), func(p *sim.Proc) {
			for !s.gens.stopped {
				start := p.Now()
				p.Sleep(computeTime(rng))
				p.WaitFor(left, func() bool { return !inEngine })
				inEngine = true
				lsn, err := client.RunMixAsync(p)
				inEngine = false
				left.Broadcast()
				execEnd := p.Now()
				if err != nil {
					s.rec.fail(execEnd)
					continue
				}
				if lsn > 0 {
					s.log.WaitDurable(p, lsn)
					if lsn > s.maxAck {
						s.maxAck = lsn
					}
				}
				s.rec.commit(start, execEnd, p.Now())
			}
		})
	}
}

func (s *pagedStack) stop() {
	s.gens.stopped = true
	s.mgr.Stop()
}

func (s *pagedStack) pageSize() int { return s.dev.BlockSize() }

func (s *pagedStack) devices() (primaries, all []string) {
	n := []string{s.dev.Name()}
	return n, n
}

func (s *pagedStack) typed() map[string]int64 {
	t := map[string]int64{}
	clientCounts(t, s.clients)
	engineCounts(t, s.eng)
	controllerCounts(t, s.dev)
	return t
}

func (s *pagedStack) layers(d *obsDelta, m metrics) {
	geo := nandGeometry(s.dev)
	d.deviceLayers(m, []string{pagedSink}, geo.PageSize, geo.Dies())
	typedLayers(d, m)
	m["ckpt.recover_tail_records"] = float64(s.recovery.Tail)
	m["ckpt.recover_total_records"] = float64(s.recovery.Total)
}

func (s *pagedStack) sizes() string {
	return fmt.Sprintf("%d tree pages resident after load, buffer pool %d pages, %d page slots of %d B",
		s.loadedPages, pagedPoolPages, pagedSlots, s.dev.BlockSize())
}

func (s *pagedStack) userBytes(d *obsDelta) float64 {
	return float64(d.count("wal/" + pagedSink + "/durable_lsn"))
}

// check fingerprints the live engine (its pages need the live host
// interface), crashes the device, and recovers from the last complete
// checkpoint's page slots plus the log tail — all read back through the
// FTL.
func (s *pagedStack) check() (float64, error) {
	env := s.envs[0]
	if err := s.gens.quiesce(s); err != nil {
		return 0, err
	}
	var live uint64
	if err := runProc(s, env, "live engine fingerprint", func(p *sim.Proc) {
		s.mgr.WaitIdle(p)
		live = s.eng.FingerprintIn(p)
	}); err != nil {
		return 0, err
	}
	if bl := s.log.Backlog(); bl != 0 {
		return 0, fmt.Errorf("log still holds %d undurable bytes after settle", bl)
	}
	if err := powerOff(s, s.dev); err != nil {
		return 0, err
	}
	stream, err := flashPrefix(s, s.dev, s.maxAck)
	if err != nil {
		return 0, err
	}
	records := wal.DecodeAll(stream)
	var (
		recovered uint64
		rerr      error
	)
	err = runProc(s, env, "checkpoint recovery", func(p *sim.Proc) {
		t0 := p.Now()
		fs := &ftlStore{dev: s.dev, base: s.base, slots: pagedSlots}
		eng, st, err := ckpt.Recover(p, env, fs, pagedPoolPages, records, func(e *db.Engine) {
			// Only reached when the log holds no checkpoint, which check
			// reports as a failure below.
			_ = loadSorted(e, s.tcfg, loadSeed(s.cfg.seed))
		})
		s.recovery, rerr = st, err
		if err == nil {
			recovered = eng.FingerprintIn(p)
		}
		if s.rec.spans != nil {
			s.rec.spans.op("ckpt.recover", t0, p.Now())
		}
	})
	switch {
	case err != nil:
		return 0, err
	case rerr != nil:
		return 0, fmt.Errorf("checkpoint recovery: %w", rerr)
	case !s.recovery.Found:
		return 0, fmt.Errorf("no complete checkpoint on the recovered log (%d completed live)", s.mgr.Completed())
	case recovered != live:
		return 0, fmt.Errorf("recovered engine %016x differs from the live engine %016x", recovered, live)
	}
	return pooledReplayFrac(records, s.recovery)
}

// pooledReplayFrac is recovery_replay_frac for a crash that is equally likely
// after each redo record of the log: the redo records recovery replays,
// summed over those crashes, ÷ the redo records durable at the crash, summed
// likewise. The one crash the check performs leaves a tail of 0 to 15
// records depending on where in a checkpoint cycle the window happens to end
// — its share swings by a factor of three between seeds — so the other
// crash points are computed from the same log with ckpt.Recover's rule: a
// crash after record k replays the redo records of records[:k+1] at or past
// the StartLSN of the last checkpoint record among them. The rule is held
// against the program where the program ran: for the crash that did happen
// it must give exactly the Tail and Total ckpt.Recover measured, so a
// recovery that replays from anywhere else fails the check instead of
// leaving the metric where it was.
func pooledReplayFrac(records []wal.Record, measured ckpt.Stats) (float64, error) {
	var replayed, durable float64 // summed over the crash points
	total, tail := 0, 0           // redo records in records[:k+1], and of those at or past cut
	cut := 0                      // index of the first record at or past the current checkpoint's StartLSN
	redoBefore := make([]int, len(records)+1)
	for k, r := range records {
		if ckpt.IsCheckpointPayload(r.Payload) {
			c, err := ckpt.Decode(r.Payload)
			if err != nil {
				return 0, fmt.Errorf("checkpoint record at LSN %d: %w", r.LSN, err)
			}
			cut = len(records) - len(wal.TailRecords(records, c.StartLSN))
		}
		redo := !db.IsControlPayload(r.Payload)
		if redo {
			total++
		}
		redoBefore[k+1] = total
		tail = total - redoBefore[cut]
		if redo {
			replayed += float64(tail)
			durable += float64(total)
		}
	}
	if tail != measured.Tail || total != measured.Total {
		return 0, fmt.Errorf("ckpt.Recover replayed %d of %d redo records, the replay rule gives %d of %d",
			measured.Tail, measured.Total, tail, total)
	}
	if total == 0 {
		return 0, fmt.Errorf("the recovered log holds no redo record")
	}
	return replayed / durable, nil
}
