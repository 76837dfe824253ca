// Sharded chaos: the cluster scenario behind Scenario.Shards.
//
// N primary devices partition 2N warehouses; every shard runs its own
// WAL, engine, and TPC-C terminals, and the standard remote mix (1% of
// order lines, 15% of payments) makes a slice of the traffic cross-shard
// 2PC. Faults come from the same plan grammar — including shard.rpc
// rules scoped to a shard name and device.power kills of individual
// primaries. I1 and I3 are the shared prefix checks (invariants.go), run
// per shard against that shard's own recording; I5 and the synthetic I9
// carry over as they are; I4 has no monitor here. What is the cluster's
// own:
//
//	I2  recovering every shard from its flash prefix (with 2PC control
//	    records steering cross-shard write sets) reproduces the replay
//	    of the host streams — and the live engines when nothing crashed;
//	I8  no single kill, at any point in the protocol, leaves a
//	    cross-shard transaction half-applied: every participant commit
//	    has a durable coordinator decision, every durable decision has
//	    durable participant prepares, every client ack has a durable
//	    decision (shard.CheckAtomicity).
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"xssd/internal/db"
	"xssd/internal/fault"
	"xssd/internal/obs"
	"xssd/internal/shard"
	"xssd/internal/tpcc"
	"xssd/internal/wal"

	"xssd/internal/sim"
)

// shardScenarioTPCC scales the per-shard database: two warehouses per
// shard with the classic chaos row counts.
func shardScenarioTPCC(shards int) tpcc.Config {
	return tpcc.Config{Warehouses: 2 * shards, Districts: 2, CustomersPerDistrict: 8, Items: 40, FillerLen: 10}
}

// runSharded executes a Shards > 0 scenario; see the package comment
// above for the invariants it checks.
func runSharded(s Scenario) (*Result, error) {
	tcfg := shardScenarioTPCC(s.Shards)
	streams := make([][]byte, s.Shards)
	cfg := shard.Config{
		Shards:      s.Shards,
		Warehouses:  tcfg.Warehouses,
		Secondaries: s.Secondaries,
		Scheme:      s.Scheme,
		SimWorkers:  s.SimWorkers,
		Seed:        s.Seed,
		WAL:         wal.Config{GroupBytes: 4 << 10, GroupTimeout: 500 * time.Microsecond},
		WrapSink: func(id int, inner wal.Sink) wal.Sink {
			return &recordingSink{inner: inner, buf: &streams[id]}
		},
		Load: func(eng *db.Engine, id int) {
			tpcc.LoadWarehouses(eng, tcfg, loadSeed, func(w int) bool {
				return shard.OwnerOf(w, s.Shards, tcfg.Warehouses) == id
			})
		},
	}
	cl, err := shard.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	defer cl.Close()
	envs := cl.Envs()
	injs := make([]*fault.Injector, len(envs))
	for i, e := range envs {
		injs[i] = fault.New(e, s.Plan)
		fault.Attach(e, injs[i])
	}
	defer func() {
		for _, e := range envs {
			fault.Detach(e)
		}
	}()
	cl.Build()

	var (
		bootErr error
		stop    bool
		clients []*tpcc.Client
	)
	cl.Shard(0).Env().Go("chaos-shard-boot", func(p *sim.Proc) {
		if bootErr = cl.Boot(p); bootErr != nil {
			return
		}
		for _, sh := range cl.Shards() {
			sh := sh
			for w := 0; w < scenarioWorkers; w++ {
				home := sh.ID()*2 + 1 + w%2
				c := tpcc.NewShardedClient(cl, tcfg, s.Seed*97+int64(sh.ID())*1000+int64(w)+1, home, tpcc.SpecMix())
				clients = append(clients, c)
				sh.Env().Go(fmt.Sprintf("chaos-shard%d-worker-%d", sh.ID(), w), func(p *sim.Proc) {
					lg := sh.Log()
					for !stop && !lg.Dead() {
						lg.WaitBacklog(p, 32<<10)
						if stop || lg.Dead() {
							return
						}
						p.Sleep(100 * time.Microsecond)
						c.RunMix(p)
					}
				})
			}
		}
		cl.Release()
	})

	cl.RunUntil(s.Window)
	if bootErr != nil {
		return nil, fmt.Errorf("chaos: boot: %w", bootErr)
	}
	stop = true
	cl.RunUntil(s.Window + settleTime)

	r := &Result{Seed: s.Seed, Secondaries: s.Secondaries, Scheme: s.Scheme}
	v := &violations{}
	for _, sh := range cl.Shards() {
		if sh.Device().PowerLost() {
			r.PowerLost = true
			if !sh.Device().Drained() {
				cl.RunUntil(cl.Now() + 300*time.Millisecond)
			}
		}
	}
	for _, c := range clients {
		byType, _, _ := c.Counts()
		for _, n := range byType {
			r.Commits += n
		}
	}
	for _, inj := range injs {
		r.Firings += len(inj.Firings())
	}

	// ---- per-shard I1 + I3, and the flash-prefix views for I2/I8 ------
	prefixes := make([][]byte, s.Shards)
	for i, sh := range cl.Shards() {
		v.prefix = fmt.Sprintf("shard %d: ", i)
		prim := sh.Device()
		r.Written += int64(len(streams[i]))
		r.Destaged += prim.Destage().DestagedStream()
		r.Durable += sh.Log().DurableLSN()
		checkReplicaPrefix(v, "I3", sh.Secondaries(), streams[i], prim.CMB().Ring().Frontier(), !prim.PowerLost())
		if prefixes[i], err = checkConventionalPrefix(v, "I1", prim, sh.Log(), streams[i]); err != nil {
			return nil, fmt.Errorf("chaos: shard %d: %w", i, err)
		}
	}

	// ---- I2 + I8: cluster recovery from the flash prefixes ------------
	views := make([]*shard.View, s.Shards)
	hostViews := make([]*shard.View, s.Shards)
	parseOK := true
	for i := range prefixes {
		v.prefix = fmt.Sprintf("shard %d: ", i)
		if prefixes[i] == nil {
			parseOK = false
			break
		}
		if views[i], err = shard.ParseStream(i, prefixes[i]); err != nil {
			v.add("I2", "parse flash prefix: %v", err)
			parseOK = false
			break
		}
		if hostViews[i], err = shard.ParseStream(i, streams[i][:len(prefixes[i])]); err != nil {
			v.add("I2", "parse host stream: %v", err)
			parseOK = false
			break
		}
	}
	v.prefix = ""
	if parseOK {
		acked := make([][]int64, s.Shards)
		for i, sh := range cl.Shards() {
			acked[i] = sh.AckedGIDs()
		}
		v.extend(shard.CheckAtomicity(views, acked))
		replayLoad := func(eng *db.Engine, id int) { cfg.Load(eng, id) }
		recovered, rerr := shard.Replay(sim.NewEnv(1), views, replayLoad)
		if rerr != nil {
			v.add("I2", "recover from flash prefixes: %v", rerr)
		} else {
			oracle, oerr := shard.Replay(sim.NewEnv(1), hostViews, replayLoad)
			if oerr != nil {
				v.add("I2", "replay host streams: %v", oerr)
			} else {
				for i := range recovered {
					v.prefix = fmt.Sprintf("shard %d: ", i)
					if recovered[i].Fingerprint() != oracle[i].Fingerprint() {
						v.add("I2", "recovered state diverges from host-stream replay")
					}
					if !r.PowerLost && recovered[i].Fingerprint() != cl.Shard(i).Engine().Fingerprint() {
						v.add("I2", "recovered state != live engine with no crash")
					}
				}
			}
		}
	}

	// ---- I9: checkpoint-bounded recovery, per shard -------------------
	// Synthetic schedule: each shard's durable stream replays into a paged
	// engine with fuzzy checkpoints and a randomized crash point. The
	// paged, checkpoint and classic replays are all db.Engine.Replay, so
	// all three apply the shard's cross-shard writes from its DECISION and
	// COMMITP records, a COMMITP past a checkpoint finding its PREPARE
	// before it. In-doubt prepares are presumed aborted on all three; I2
	// above checks them against the coordinators' decisions.
	for i := range prefixes {
		if prefixes[i] == nil {
			continue
		}
		id := i
		v.prefix = fmt.Sprintf("shard %d: ", i)
		v.extend(syntheticPagedI9(s.Seed*1000003+int64(i)*7919+29, wal.DecodeAll(prefixes[i]), func(e *db.Engine) { cfg.Load(e, id) }))
	}
	v.prefix = ""

	// ---- I5 ingredients: fold, shard-major ----------------------------
	snap := cl.Snapshot()
	r.Metrics = snap.Encode()
	fp := obs.FNVOffset
	for i, sh := range cl.Shards() {
		fp = obs.Mix64(fp, sh.Device().Tracer().Fingerprint())
		for _, sec := range sh.Secondaries() {
			fp = obs.Mix64(fp, sec.Tracer().Fingerprint())
		}
		fp = obs.Mix64(fp, sh.Engine().Fingerprint())
		fp = obs.Mix64(fp, uint64(len(streams[i])))
		for _, gid := range sh.AckedGIDs() {
			fp = obs.Mix64(fp, uint64(gid))
		}
	}
	fp = obs.Mix64(fp, uint64(r.Commits))
	fp = obs.Mix64(fp, uint64(r.Firings))
	fp = obs.Mix64(fp, snap.Fingerprint())
	r.Fingerprint = fp
	r.Events = cl.Events()
	r.Violations = v.list
	return r, nil
}

// DefaultShardScenario derives a randomized sharded scenario from a
// seed: shard count (when shards <= 0), replication shape, and a fault
// plan mixing the generic device faults with shard-scoped RPC
// disturbance and single-primary kills.
func DefaultShardScenario(seed int64, shards int) Scenario {
	rng := rand.New(rand.NewSource(seed*1000003 + 17))
	if shards <= 0 {
		shards = 2 + rng.Intn(3)
	}
	s := Scenario{Seed: seed, Shards: shards, Secondaries: rng.Intn(2)}.withDefaults()
	if s.Secondaries > 0 {
		s.Scheme = randomScheme(rng)
	}
	victim := fmt.Sprintf("p%d", rng.Intn(shards))
	plan := &fault.Plan{}
	add := func(r fault.Rule) { plan.Rules = append(plan.Rules, r) }
	if rng.Intn(2) == 0 {
		add(fault.Rule{Point: fault.NANDProgram, Trigger: fault.TriggerProb, Prob: 0.02 + 0.08*rng.Float64(),
			Action: fault.ActionFail, Times: int64(rng.Intn(4)) + 1})
	}
	if rng.Intn(3) == 0 {
		add(fault.Rule{Point: fault.WALSink, Trigger: fault.TriggerOn, Count: int64(rng.Intn(6)) + 2,
			Action: fault.ActionFail, Times: int64(rng.Intn(2)) + 1})
	}
	if rng.Intn(2) == 0 {
		// RPC jitter below the timeout: perturbs 2PC interleavings
		// without making peers unavailable.
		add(fault.Rule{Point: fault.ShardRPC + "@" + victim, Trigger: fault.TriggerProb, Prob: 0.05 + 0.15*rng.Float64(),
			Action: fault.ActionDelay, Dur: time.Duration(rng.Int63n(int64(200*time.Microsecond))) + 20*time.Microsecond,
			Times: int64(rng.Intn(8)) + 2})
	}
	if rng.Intn(3) == 0 {
		add(fault.Rule{Point: fault.ShardRPC + "@" + victim, Trigger: fault.TriggerProb, Prob: 0.02 + 0.08*rng.Float64(),
			Action: fault.ActionDrop, Times: int64(rng.Intn(4)) + 1})
	}
	if rng.Intn(3) == 0 {
		at := s.Window/4 + time.Duration(rng.Int63n(int64(s.Window/2)))
		add(fault.Rule{Point: fault.DevicePower + "@" + victim, Trigger: fault.TriggerAt, At: at, Action: fault.ActionFail})
	}
	s.Plan = plan
	return s
}
