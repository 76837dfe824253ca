// Sharded chaos: the cluster scenario behind Scenario.Shards.
//
// N primary devices partition 2N warehouses; every shard runs its own
// WAL, engine, and TPC-C terminals, and the standard remote mix (1% of
// order lines, 15% of payments) makes a slice of the traffic cross-shard
// 2PC. Faults come from the same plan grammar — including shard.rpc
// rules scoped to a shard name and device.power kills of individual
// primaries. I1-I3 are the shared checks (invariants.go), run per shard
// against that shard's own log stream; I5 and the synthetic I9 carry over
// as they are; I4 has no monitor here. I2's recovery walks the 2PC control
// records, so a shard's cross-shard write sets apply as its coordinator
// decided. What is the cluster's own:
//
//	I8  no single kill, at any point in the protocol, leaves a
//	    cross-shard transaction half-applied: every participant commit
//	    has a durable coordinator decision, every durable decision has
//	    durable participant prepares, every client ack has a durable
//	    decision (shard.CheckAtomicity, inside the recovery check).
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"xssd/internal/db"
	"xssd/internal/fault"
	"xssd/internal/obs"
	"xssd/internal/shard"
	"xssd/internal/sim"
	"xssd/internal/stack"
	"xssd/internal/tpcc"
	"xssd/internal/wal"
)

// ShardTPCC is the TPC-C shape of every sharded harness: two warehouses
// per shard, with the classic chaos row counts.
func ShardTPCC(shards int) tpcc.Config {
	return tpcc.Config{Warehouses: 2 * shards, Districts: 2, CustomersPerDistrict: 8, Items: 40, FillerLen: 10}
}

// ShardRun is a sharded TPC-C run that has finished its window and its
// settle time. Close it when done.
type ShardRun struct {
	Cluster *shard.Cluster
	Load    func(eng *db.Engine, shardID int) // the initial rows, for replay oracles
	Faults  *stack.Faults                     // nil without a plan
	Commits int64                             // transactions the terminals committed
}

// Close releases the cluster and unhooks the faults.
func (r *ShardRun) Close() {
	r.Cluster.Close()
	if r.Faults != nil {
		r.Faults.Detach()
	}
}

// RunShards drives a sharded TPC-C cluster the way the sharded chaos
// scenario and the shard bench cells both do. cfg gives the cluster's
// Shards, Seed, SimWorkers and replica shape (and its WAL); RunShards
// fills in the ShardTPCC warehouses and a Load seeded with loadSeed. plan,
// when non-nil, is hooked into the shards' members before any device
// exists. Two terminals per shard, homed on its two warehouses, draw
// remote warehouses at mix and commit through 2PC until window; then they
// stop and the cluster runs settle longer.
func RunShards(cfg shard.Config, plan *fault.Plan, loadSeed int64, mix tpcc.RemoteMix, window, settle time.Duration) (*ShardRun, error) {
	tcfg := ShardTPCC(cfg.Shards)
	cfg.Warehouses = tcfg.Warehouses
	cfg.Load = func(eng *db.Engine, id int) {
		tpcc.LoadWarehouses(eng, tcfg, loadSeed, func(w int) bool {
			return shard.OwnerOf(w, cfg.Shards, tcfg.Warehouses) == id
		})
	}
	cl, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	run := &ShardRun{Cluster: cl, Load: cfg.Load}
	if plan != nil {
		run.Faults = stack.AttachFaults(cl.Envs(), plan)
	}
	cl.Build()

	var (
		bootErr error
		stop    bool
		clients []*tpcc.Client
	)
	cl.Shard(0).Env().Go("shard-boot", func(p *sim.Proc) {
		if bootErr = cl.Boot(p); bootErr != nil {
			return
		}
		for _, sh := range cl.Shards() {
			sh := sh
			for w := 0; w < scenarioWorkers; w++ {
				home := sh.ID()*2 + 1 + w%2
				c := tpcc.NewShardedClient(cl, tcfg, cfg.Seed*97+int64(sh.ID())*1000+int64(w)+1, home, mix)
				clients = append(clients, c)
				done := func() bool { return stop || sh.Log().Dead() }
				sh.Env().Go(fmt.Sprintf("shard%d-terminal-%d", sh.ID(), w), terminal(sh.Log(), done, func(p *sim.Proc) { c.RunMix(p) }))
			}
		}
		cl.Release()
	})

	cl.RunUntil(window)
	if bootErr != nil {
		run.Close()
		return nil, fmt.Errorf("boot: %w", bootErr)
	}
	stop = true
	cl.RunUntil(window + settle)
	for _, c := range clients {
		byType, _, _ := c.Counts()
		for _, n := range byType {
			run.Commits += n
		}
	}
	return run, nil
}

// runSharded executes a Shards > 0 scenario; see the package comment
// above for the invariants it checks.
func runSharded(s Scenario) (*Result, error) {
	run, err := RunShards(shard.Config{
		Shards:      s.Shards,
		Secondaries: s.Secondaries,
		Scheme:      s.Scheme,
		SimWorkers:  s.SimWorkers,
		Seed:        s.Seed,
		WAL:         oracleWAL,
	}, s.Plan, loadSeed, tpcc.SpecMix(), s.Window, settleTime)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	defer run.Close()
	cl, load := run.Cluster, run.Load

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
	r.Commits, r.Firings = run.Commits, run.Faults.Firings()

	// ---- per-shard I1 + I3, and the flash prefixes for I2/I8 ----------
	n := s.Shards
	streams, prefixes, acked := make([][]byte, n), make([][]byte, n), make([][]int64, n)
	var live []uint64
	for i, sh := range cl.Shards() {
		v.prefix = fmt.Sprintf("shard %d: ", i)
		prim := sh.Device()
		if streams[i], err = logStream(sh.Log()); err != nil {
			return nil, fmt.Errorf("chaos: shard %d: oracle stream: %w", i, err)
		}
		r.Written += int64(len(streams[i]))
		r.Destaged += prim.Destage().DestagedStream()
		r.Durable += sh.Log().DurableLSN()
		checkReplicaPrefix(v, "I3", sh.Secondaries(), streams[i], prim.CMB().Ring().Frontier(), !prim.PowerLost())
		if prefixes[i], err = checkConventionalPrefix(v, "I1", prim, sh.Log(), streams[i]); err != nil {
			return nil, fmt.Errorf("chaos: shard %d: %w", i, err)
		}
		acked[i] = sh.AckedGIDs()
		if !r.PowerLost {
			live = append(live, sh.Engine().Fingerprint())
		}
	}
	v.prefix = ""

	// ---- I2 + I8: cluster recovery from the flash prefixes ------------
	checkRecovery(v, "I2", prefixes, streams, acked, load, live)

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
		v.extend(syntheticPagedI9(s.Seed*1000003+int64(i)*7919+29, wal.DecodeAll(prefixes[i]), func(e *db.Engine) { load(e, id) }))
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
	r.Stray = cl.Group().Stats().Stray
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
