package main

import (
	"fmt"
	"math/rand"
	"time"

	"xssd/internal/core"
	"xssd/internal/db"
	"xssd/internal/nand"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/pm"
	"xssd/internal/repl"
	"xssd/internal/sim"
	"xssd/internal/tpcc"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// tpcc_local and tpcc_repl share one host side — the paper's Fig 9
// Villars-SRAM cell at 8 workers: ERMIA-style pipelined commit over a
// 16 KB / 10 ms group-commit log, each terminal running ahead of
// durability by at most the 64 KB log buffer.
const (
	tpccTerminals  = 8
	tpccCompute    = 26 * time.Microsecond
	tpccMaxBacklog = 64 << 10
	tpccSink       = "log"
)

// computeTime draws one transaction's compute budget: tpccCompute ± 10 %,
// uniform, from the terminal's own seeded source. With a constant budget
// the eight terminals phase-lock on the group-commit cycle and half of all
// commits share one latency to the nanosecond, whatever the seed; the
// jitter (fig 13 in internal/bench does the same to its writer) makes the
// latency distribution continuous without moving its mean.
func computeTime(rng *rand.Rand) time.Duration {
	return tpccCompute*9/10 + time.Duration(rng.Int63n(int64(tpccCompute/5)+1))
}

// terminalRand is terminal w's source for compute jitter, distinct from
// the TPC-C client's own stream.
func terminalRand(seed int64, w int) *rand.Rand {
	return rand.New(rand.NewSource(clientSeed(seed, 1000+w)))
}

// logDeviceConfig is the Fig 9 device: paper-scale NAND behind an SRAM CMB
// with enough ring for the destage pipeline to stream at program bandwidth.
func logDeviceConfig(name string) villars.Config {
	cfg := villars.DefaultConfig(name)
	cfg.Backing = pm.SRAMSpec
	if cfg.Backing.Capacity < 2<<20 {
		cfg.Backing.Capacity = 2 << 20
	}
	cfg.CMBSize = cfg.Backing.Capacity
	cfg.Geometry = nand.Geometry{Channels: 8, WaysPerChan: 8, BlocksPerDie: 64, PagesPerBlock: 64, PageSize: 16 << 10}
	cfg.QueueSize = 32 << 10
	return cfg
}

// newDevice builds a device and registers its NVMe driver's instruments,
// so conventional-side command latency is observable on every topology.
func newDevice(env *sim.Env, cfg villars.Config, hostMem int) *villars.Device {
	d := villars.New(env, cfg, pcie.NewHostMemory(hostMem))
	d.HostDriver().Observe(obs.For(env).Scope(cfg.Name + "/nvme"))
	return d
}

// pendingCommit is a transaction whose redo record is appended but not yet
// durable.
type pendingCommit struct {
	lsn            int64
	start, execEnd time.Duration
}

// commitQueue is the FIFO between terminals and the latency tracker. It
// reuses its backing array so steady state does not allocate.
type commitQueue struct {
	q    []pendingCommit
	head int
}

func (c *commitQueue) push(e pendingCommit) {
	if c.head > 0 && c.head == len(c.q) {
		c.q, c.head = c.q[:0], 0
	}
	c.q = append(c.q, e)
}

func (c *commitQueue) empty() bool { return c.head == len(c.q) }

func (c *commitQueue) pop() pendingCommit {
	e := c.q[c.head]
	c.head++
	return e
}

// tpccStack is a built tpcc_local or tpcc_repl topology.
type tpccStack struct {
	simRunner
	cfg     config
	tcfg    tpcc.Config
	devs    []*villars.Device // devs[0] is the primary
	log     *wal.Log
	eng     *db.Engine
	clients []*tpcc.Client
	gens    loadGens
	maxAck  int64 // highest LSN acknowledged to a terminal
}

// loadSeed and clientSeed derive the generated inputs from -seed.
func loadSeed(seed int64) int64          { return seed*7919 + 7 }
func clientSeed(seed int64, w int) int64 { return seed*97 + 100 + int64(w) }

func buildTPCCLocal(cfg config, rec *recorder) (instance, error) {
	return buildTPCC(cfg, rec, 0)
}

func buildTPCCRepl(cfg config, rec *recorder) (instance, error) {
	return buildTPCC(cfg, rec, 2)
}

// buildTPCC wires the host side over one log device plus secondaries
// eager replicas, each on its own group member.
func buildTPCC(cfg config, rec *recorder, secondaries int) (instance, error) {
	s := &tpccStack{cfg: cfg, tcfg: tpcc.DefaultConfig()}
	var env *sim.Env
	if secondaries > 0 {
		s.group = sim.NewGroup(sim.GroupConfig{Workers: cfg.workers, StartInline: true})
		env = s.group.NewEnv("host", cfg.seed)
	} else {
		env = sim.NewEnv(cfg.seed)
	}
	s.envs = []*sim.Env{env}
	s.devs = []*villars.Device{newDevice(env, logDeviceConfig("prim"), 1<<20)}
	for i := 0; i < secondaries; i++ {
		name := fmt.Sprintf("sec%d", i)
		senv := s.group.NewEnv(name, cfg.seed+int64(i)+1)
		s.envs = append(s.envs, senv)
		s.devs = append(s.devs, newDevice(senv, logDeviceConfig(name), 1<<20))
	}

	var bootErr error
	booted := false
	env.Go("boot", func(p *sim.Proc) {
		defer func() { booted = true }()
		if secondaries > 0 {
			cluster, err := repl.New(env, s.devs)
			if err != nil {
				bootErr = err
				return
			}
			if err := cluster.Setup(p, 0, core.Eager); err != nil {
				bootErr = err
				return
			}
		}
		s.log = wal.NewLog(env, wal.NewVillarsSink(p, s.devs[0], tpccSink),
			wal.Config{GroupBytes: 16 << 10, GroupTimeout: 10 * time.Millisecond})
		s.eng = db.New(env, s.log)
		tpcc.Load(s.eng, s.tcfg, loadSeed(cfg.seed))
		s.startTerminals(env, rec)
		if s.group != nil {
			s.group.Parallelize()
		}
	})
	s.runUntil(200 * time.Microsecond)
	if !booted {
		s.close()
		return nil, fmt.Errorf("bring-up did not finish in 200µs of virtual time")
	}
	if bootErr != nil {
		s.close()
		return nil, bootErr
	}
	return s, nil
}

// startTerminals releases the closed loop: tpccTerminals workers, each
// waiting only on the log-buffer bound, and one tracker that acknowledges
// commits in LSN order as the log's durable horizon passes them.
func (s *tpccStack) startTerminals(env *sim.Env, rec *recorder) {
	var fifo commitQueue
	arrived := env.NewSignal()
	env.Go("ack-tracker", func(p *sim.Proc) {
		for {
			if fifo.empty() {
				p.Wait(arrived)
				continue
			}
			e := fifo.pop()
			s.log.WaitDurable(p, e.lsn)
			s.maxAck = e.lsn
			rec.commit(e.start, e.execEnd, p.Now())
		}
	})
	for w := 0; w < tpccTerminals; w++ {
		client := tpcc.NewClient(s.eng, s.tcfg, clientSeed(s.cfg.seed, w), w%s.tcfg.Warehouses+1)
		s.clients = append(s.clients, client)
		rng := terminalRand(s.cfg.seed, w)
		s.gens.spawn(env, fmt.Sprintf("terminal-%d", w), func(p *sim.Proc) {
			for !s.gens.stopped {
				s.log.WaitBacklog(p, tpccMaxBacklog)
				if s.gens.stopped {
					return
				}
				start := p.Now()
				p.Sleep(computeTime(rng))
				lsn, err := client.RunMixAsync(p)
				now := p.Now()
				switch {
				case err != nil:
					rec.fail(now)
				case lsn == 0: // read-only: nothing to make durable
					rec.commit(start, now, now)
				default:
					fifo.push(pendingCommit{lsn: lsn, start: start, execEnd: now})
					arrived.Broadcast()
				}
			}
		})
	}
}

func (s *tpccStack) stop() { s.gens.stopped = true }

func (s *tpccStack) pageSize() int { return s.devs[0].BlockSize() }

func (s *tpccStack) devices() (primaries, all []string) {
	for _, d := range s.devs {
		all = append(all, d.Name())
	}
	return all[:1], all
}

func (s *tpccStack) typed() map[string]int64 {
	t := map[string]int64{}
	clientCounts(t, s.clients)
	engineCounts(t, s.eng)
	controllerCounts(t, s.devs[0])
	return t
}

// terminal is the part of tpcc.Client and tpcc.ShardedClient the
// benchmark reads.
type terminal interface {
	Counts() (byType [5]int64, aborts, retries int64)
}

// clientCounts adds the terminals' committed, aborted and retried counts.
func clientCounts[T terminal](t map[string]int64, clients []T) {
	for _, c := range clients {
		byType, aborts, retries := c.Counts()
		for _, n := range byType {
			t["tpcc.attempts"] += n
		}
		t["tpcc.attempts"] += aborts
		t["tpcc.aborts"] += aborts
		t["tpcc.retries"] += retries
	}
}

func engineCounts(t map[string]int64, eng *db.Engine) {
	commits, aborts := eng.Stats()
	t["db.commits"] += commits
	t["db.aborts"] += aborts
}

func controllerCounts(t map[string]int64, d *villars.Device) {
	reads, _, _, _, errs := d.ControllerStats()
	t["hic.reads"] += reads
	t["hic.errors"] += errs
}

// typedLayers fills the per-layer metrics that come from typed stats.
func typedLayers(d *obsDelta, m metrics) {
	for _, name := range []string{"tpcc.attempts", "tpcc.aborts", "tpcc.retries", "db.commits", "db.aborts"} {
		m[name] = float64(d.typed(name))
	}
}

func (s *tpccStack) layers(d *obsDelta, m metrics) {
	geo := nandGeometry(s.devs[0])
	d.deviceLayers(m, []string{tpccSink}, geo.PageSize, geo.Dies())
	typedLayers(d, m)
}

func (s *tpccStack) sizes() string {
	return fmt.Sprintf("%d warehouses in memory, %d device(s), destage ring %d pages of %d B",
		s.tcfg.Warehouses, len(s.devs), ringSlots(s.devs[0]), s.devs[0].BlockSize())
}

func ringSlots(d *villars.Device) int64 {
	_, n := d.Destage().LBARing()
	return n
}

func nandGeometry(d *villars.Device) nand.Geometry { return d.Array().Geometry() }

// userBytes is the redo stream made durable in the window.
func (s *tpccStack) userBytes(d *obsDelta) float64 {
	return float64(d.count("wal/" + tpccSink + "/durable_lsn"))
}

// check crashes the primary and recovers a fresh engine from its flash.
func (s *tpccStack) check() (float64, error) {
	if err := s.gens.quiesce(s); err != nil {
		return 0, err
	}
	if bl := s.log.Backlog(); bl != 0 {
		return 0, fmt.Errorf("log still holds %d undurable bytes after settle", bl)
	}
	live := s.eng.Fingerprint()
	prim := s.devs[0]
	if err := powerOff(s, prim); err != nil {
		return 0, err
	}
	stream, err := flashPrefix(s, prim, s.maxAck)
	if err != nil {
		return 0, err
	}
	// Eager replication acknowledges on the minimum shadow counter, so
	// every replica must hold every acknowledged byte too.
	for _, sec := range s.devs[1:] {
		if fr := sec.CMB().Ring().Frontier(); fr < s.maxAck {
			return 0, fmt.Errorf("%s persisted %d bytes, acknowledged LSN is %d", sec.Name(), fr, s.maxAck)
		}
	}
	recovered := db.New(sim.NewEnv(1), nil)
	tpcc.Load(recovered, s.tcfg, loadSeed(s.cfg.seed))
	if err := recovered.Recover(wal.DecodeAll(stream)); err != nil {
		return 0, fmt.Errorf("replay of the recovered log: %w", err)
	}
	if got := recovered.Fingerprint(); got != live {
		return 0, fmt.Errorf("recovered engine %016x differs from the live engine %016x", got, live)
	}
	return 1, nil
}
