package main

import (
	"fmt"
	"time"

	"xssd/internal/db"
	"xssd/internal/nand"
	"xssd/internal/pm"
	"xssd/internal/shard"
	"xssd/internal/sim"
	"xssd/internal/tpcc"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// tpcc_shard4 is the cluster: four shards of two warehouses, each an
// independent group member with its own device, log and engine, two
// terminals per shard, and the spec remote mix — so about one transaction
// in ten commits through presumed-abort two-phase commit over the RPC
// conduit and waits on the slowest participant's log.
const (
	shardCount     = 4
	shardTerminals = 2
	shardThink     = 100 * time.Microsecond
	shardBacklog   = 32 << 10
	shardRingLBAs  = 16384
	// shardOpTries bounds how often a terminal re-runs an operation whose
	// transaction exhausted the client's own conflict retries. The tiny
	// per-shard tables make such aborts routine (about 1 in 1000), and a
	// terminal that gives up on them would report failed operations on a
	// healthy cluster; retried, they show up as tail latency instead.
	shardOpTries = 8
)

func shardTPCCConfig() tpcc.Config {
	return tpcc.Config{Warehouses: 2 * shardCount, Districts: 2, CustomersPerDistrict: 8, Items: 40, FillerLen: 10}
}

// shardDevice is shard.DefaultDevice's fast side over a NAND array and
// destage ring large enough to hold a whole run's log, so the read-back
// after the crash sees the complete stream.
func shardDevice(env *sim.Env, name string) *villars.Device {
	cfg := villars.DefaultConfig(name)
	cfg.Backing = pm.SRAMSpec
	cfg.Geometry = nand.Geometry{Channels: 4, WaysPerChan: 4, BlocksPerDie: 64, PagesPerBlock: 64, PageSize: 4 << 10}
	cfg.QueueSize = 4096
	cfg.CMBSize = 64 << 10
	cfg.DestageLatencyBound = time.Millisecond // 100 µs pads ten times the pages and holds 430 MB of filler in the simulated NAND
	cfg.DestageLBAs = shardRingLBAs
	return newDevice(env, cfg, 1<<20)
}

type shardStack struct {
	simRunner
	cfg     config
	tcfg    tpcc.Config
	cl      *shard.Cluster
	clients []*tpcc.ShardedClient
	gens    []*loadGens // one per shard: each is touched by its own Env only
}

func (s *shardStack) load(eng *db.Engine, id int) {
	tpcc.LoadWarehouses(eng, s.tcfg, loadSeed(s.cfg.seed), func(w int) bool {
		return shard.OwnerOf(w, shardCount, s.tcfg.Warehouses) == id
	})
}

func buildTPCCShard(cfg config, rec *recorder) (instance, error) {
	s := &shardStack{cfg: cfg, tcfg: shardTPCCConfig()}
	cl, err := shard.New(shard.Config{
		Shards:     shardCount,
		Warehouses: s.tcfg.Warehouses,
		SimWorkers: cfg.workers,
		Seed:       cfg.seed,
		WAL:        wal.Config{GroupBytes: 4 << 10, GroupTimeout: 500 * time.Microsecond},
		Device:     shardDevice,
		Load:       s.load,
	})
	if err != nil {
		return nil, err
	}
	s.cl = cl
	cl.Build()
	s.group, s.envs = cl.Group(), cl.Envs()

	var bootErr error
	booted := false
	cl.Shard(0).Env().Go("boot", func(p *sim.Proc) {
		defer func() { booted = true }()
		if bootErr = cl.Boot(p); bootErr != nil {
			return
		}
		for _, sh := range cl.Shards() {
			sh := sh
			g := &loadGens{}
			s.gens = append(s.gens, g)
			srec := rec.fork()
			for w := 0; w < shardTerminals; w++ {
				home := sh.ID()*2 + 1 + w%2
				client := tpcc.NewShardedClient(cl, s.tcfg, clientSeed(cfg.seed, sh.ID()*shardTerminals+w), home, tpcc.SpecMix())
				s.clients = append(s.clients, client)
				g.spawn(sh.Env(), fmt.Sprintf("terminal-%d-%d", sh.ID(), w), func(p *sim.Proc) {
					for !g.stopped {
						sh.Log().WaitBacklog(p, shardBacklog)
						if g.stopped {
							return
						}
						start := p.Now()
						p.Sleep(shardThink)
						var err error
						for try := 0; try < shardOpTries; try++ {
							if _, err = client.RunMix(p); err == nil {
								break
							}
						}
						if err != nil {
							srec.fail(p.Now())
							continue
						}
						// The synchronous commit (local or 2PC) waits on the
						// log inside RunMix, so the whole operation is one
						// phase here.
						srec.commit(start, p.Now(), p.Now())
					}
				})
			}
		}
		cl.Release()
	})
	for i := 0; i < 20 && !booted; i++ {
		s.runUntil(s.now() + 100*time.Microsecond)
	}
	if !booted {
		s.close()
		return nil, fmt.Errorf("cluster bring-up did not finish in 2ms of virtual time")
	}
	if bootErr != nil {
		s.close()
		return nil, bootErr
	}
	return s, nil
}

func (s *shardStack) stop() {
	for _, g := range s.gens {
		g.stopped = true
	}
}

func (s *shardStack) pageSize() int { return s.cl.Shard(0).Device().BlockSize() }

func (s *shardStack) devices() (primaries, all []string) {
	for _, sh := range s.cl.Shards() {
		all = append(all, sh.Device().Name())
	}
	return all, all
}

func (s *shardStack) sizes() string {
	return fmt.Sprintf("%d shards × %d warehouses in memory, %d terminals per shard, destage ring %d pages of %d B per shard",
		shardCount, s.tcfg.Warehouses/shardCount, shardTerminals, shardRingLBAs, s.pageSize())
}

func (s *shardStack) typed() map[string]int64 {
	t := map[string]int64{}
	clientCounts(t, s.clients)
	for _, sh := range s.cl.Shards() {
		engineCounts(t, sh.Engine())
		controllerCounts(t, sh.Device())
	}
	return t
}

func (s *shardStack) sinks() []string {
	var out []string
	for _, sh := range s.cl.Shards() {
		out = append(out, sh.Device().Name()) // the shard's log sink carries its primary's name
	}
	return out
}

func (s *shardStack) layers(d *obsDelta, m metrics) {
	geo := nandGeometry(s.cl.Shard(0).Device())
	d.deviceLayers(m, s.sinks(), geo.PageSize, geo.Dies())
	typedLayers(d, m)
}

func (s *shardStack) userBytes(d *obsDelta) float64 {
	var n int64
	for _, sink := range s.sinks() {
		n += d.count("wal/" + sink + "/durable_lsn")
	}
	return float64(n)
}

// check crashes every primary at once and recovers the cluster from the
// four flash prefixes: 2PC control records steer which write sets apply,
// and invariant I8 (no cross-shard atomicity violation) must hold.
func (s *shardStack) check() (float64, error) {
	for _, g := range s.gens {
		if err := g.quiesce(s); err != nil {
			return 0, err
		}
	}
	shards := s.cl.Shards()
	live := make([]uint64, len(shards))
	devs := make([]*villars.Device, len(shards))
	for i, sh := range shards {
		if bl := sh.Log().Backlog(); bl != 0 {
			return 0, fmt.Errorf("shard %d: log still holds %d undurable bytes after settle", i, bl)
		}
		live[i] = sh.Engine().Fingerprint()
		devs[i] = sh.Device()
	}
	if err := powerOff(s, devs...); err != nil {
		return 0, err
	}
	views := make([]*shard.View, len(shards))
	acked := make([][]int64, len(shards))
	for i, sh := range shards {
		stream, err := flashPrefix(s, sh.Device(), sh.Log().DurableLSN())
		if err != nil {
			return 0, err
		}
		if views[i], err = shard.ParseStream(i, stream); err != nil {
			return 0, err
		}
		acked[i] = sh.AckedGIDs()
	}
	if bad := shard.CheckAtomicity(views, acked); len(bad) > 0 {
		return 0, fmt.Errorf("%d atomicity violations, first: %s", len(bad), bad[0])
	}
	recovered, err := shard.Replay(sim.NewEnv(1), views, s.load)
	if err != nil {
		return 0, fmt.Errorf("cluster replay: %w", err)
	}
	for i := range recovered {
		if got := recovered[i].Fingerprint(); got != live[i] {
			return 0, fmt.Errorf("shard %d: recovered engine %016x differs from the live engine %016x", i, got, live[i])
		}
	}
	return 1, nil
}

func (s *shardStack) close() { s.cl.Close() }
