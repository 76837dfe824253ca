// Package chaos runs randomized fault-injection scenarios against the
// full stack — TPC-C transactions committing through the WAL into a
// Villars device (optionally replicated over NTB) while a fault.Plan
// injects bad blocks, destage failures, dropped mirror traffic, frozen
// shadow counters, sink errors, and power loss — and then checks the
// crash/replication invariants the paper promises:
//
//	I1  the conventional side holds a gap-free prefix of the acknowledged
//	    log stream, covering at least the durable horizon (§4.1, §4.3);
//	I2  recovering a database from that prefix reproduces exactly the
//	    state a replay of the host-side stream yields (and the live
//	    engine's state when there was no crash);
//	I3  every secondary's ring is a prefix of the primary's stream, and
//	    catch-up converges once faults clear (§4.2);
//	I4  a replica whose shadow counter goes stale while data is
//	    outstanding is surfaced in the status register (§4.2);
//	I5  re-running the same (seed, plan) reproduces the run bit for bit
//	    (identical trace fingerprints);
//	I9  recovering from (last complete checkpoint + WAL tail) is
//	    bit-identical to a full replay of the durable stream, and replays
//	    strictly fewer records once a checkpoint completed — paged runs
//	    check it against the primary's own page slots, every other run
//	    against a synthetic checkpoint schedule (paged.go).
//
// I6-I7 (takeover safety and determinism) and I8 (cross-shard atomicity)
// belong to the KillAt and Shards axes: failover.go, shard.go. There is
// one Scenario, one Run and one Sweep, and the prefix disciplines behind
// I1-I3 are stated once (invariants.go) for every runner to call.
//
// A Scenario is fully deterministic: (Seed, Plan) and the cluster shape
// determine every event, so any violation replays exactly.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"xssd/internal/btree"
	"xssd/internal/ckpt"
	"xssd/internal/core"
	"xssd/internal/db"
	"xssd/internal/failover"
	"xssd/internal/fault"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/repl"
	"xssd/internal/shard"
	"xssd/internal/sim"
	"xssd/internal/tpcc"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// PrimaryName is the primary device's component name — the scope to use
// for device.power rules that crash the primary.
const PrimaryName = "p"

// loadSeed seeds the initial TPC-C table load (the same rows on every
// run, so recovery oracles can rebuild the starting state).
const loadSeed = 7

// chaosStallTimeout is the devices' replica stall timeout, set by
// shard.DefaultDevice, which builds every chaos device; the I4 oracle
// demands the stall bit once suppression exceeds twice this.
const chaosStallTimeout = 2 * time.Millisecond

// Scenario describes one chaos run. (Seed, Plan) plus the shape fields
// fully determine the execution; Run on an identical Scenario replays
// identically (invariants I5 and I7).
//
// Shards, Paged and KillAt are the axes beyond the replicated single
// primary. Each is implemented against the plain configuration only, so
// Run rejects any two of them together rather than silently dropping one
// (see validate).
type Scenario struct {
	// Seed seeds the simulation environment (and hence the workload and
	// every prob-triggered fault decision).
	Seed int64
	// Plan is the fault schedule; nil means no faults.
	Plan *fault.Plan
	// Secondaries is how many replica devices to attach (0 = standalone).
	Secondaries int
	// Scheme selects the replication scheme when Secondaries > 0.
	Scheme core.ReplicationScheme
	// Workers is the number of TPC-C worker processes; 0 means 2.
	Workers int
	// Window is how long the workload runs before it is stopped; 0 means
	// 30 ms. At-triggered fault rules should fire inside the window.
	Window time.Duration
	// Settle is how long the stack gets to quiesce after the workload
	// stops (flush, destage, repair, catch-up); 0 means 20 ms.
	Settle time.Duration
	// SimWorkers places the devices on the scenario's sim.Group; the
	// engine is the same either way. 0 puts every device and the host
	// workload on member 0 (one event loop). n >= 1 keeps the primary and
	// the host side on member 0, gives each secondary a member of its own,
	// and runs quanta on n executors — n == 1 being the serial runner over
	// that topology. Runs with the same (Seed, Plan, shape) and any
	// SimWorkers >= 1 are byte-identical to each other; they are a
	// different topology (hence different fingerprints) than
	// SimWorkers == 0. A takeover on a multi-member group serializes it
	// permanently at its barrier, so promotion rewiring and the re-bound
	// host stream are race-free under any worker count.
	SimWorkers int
	// Shards, when > 0, runs the sharded-cluster scenario instead of the
	// single-primary one: Shards primary devices partitioning 2*Shards
	// warehouses, cross-shard 2PC, and invariant I8 on top of the
	// classics (see shard.go).
	Shards int
	// Paged stores the database in B+tree pages behind a buffer pool
	// (internal/btree), destaged to a conventional-side LBA range of the
	// primary, with a background fuzzy-checkpoint manager (internal/ckpt)
	// bounding recovery to the WAL tail — and checks invariant I9 against
	// the device's own checkpointed page slots (see paged.go). Every other
	// run keeps the in-memory row-map engine and checks I9 post mortem
	// against a synthetic checkpoint schedule that costs no virtual time.
	Paged bool
	// KillAt, when > 0, kills whichever device is primary at that instant
	// and lets a failover.Manager promote a survivor mid-workload
	// (invariants I6-I7, see failover.go). It needs at least one secondary
	// and must fall inside the window, after boot (the first millisecond).
	KillAt time.Duration
}

func (s Scenario) withDefaults() Scenario {
	if s.Plan == nil {
		s.Plan = &fault.Plan{}
	}
	if s.Workers <= 0 {
		s.Workers = 2
	}
	if s.Window <= 0 {
		s.Window = 30 * time.Millisecond
	}
	if s.Settle <= 0 {
		s.Settle = 20 * time.Millisecond
	}
	return s
}

// validate rejects a scenario the harness cannot run as asked: a
// malformed plan, a kill with no survivor or outside the window, or two
// axes that are not composed yet — each pair would run with one axis
// quietly ignored while the summary claimed its invariant. Call after
// withDefaults.
func (s Scenario) validate() error {
	if err := s.Plan.Validate(); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	kill := s.KillAt != 0
	uncomposed := func(pair, why string) error {
		return fmt.Errorf("chaos: scenario combines %s, which are not composed yet (%s)", pair, why)
	}
	switch {
	case kill && s.Secondaries < 1:
		return fmt.Errorf("chaos: failover needs at least one secondary")
	case kill && (s.KillAt < 0 || s.KillAt >= s.Window):
		return fmt.Errorf("chaos: kill time %v outside the window %v", s.KillAt, s.Window)
	case s.Shards > 0 && s.Paged:
		return uncomposed("Shards and Paged", "shard.Cluster builds row-map engines")
	case s.Shards > 0 && kill:
		return uncomposed("Shards and KillAt", "shard.Cluster has no failover manager")
	case s.Paged && kill:
		return uncomposed("Paged and KillAt", "the page store stays bound to the dead primary")
	}
	return nil
}

// invariants names what Run checks on this scenario's axes, for the
// sweep summary.
func (s Scenario) invariants() string {
	switch {
	case s.KillAt > 0:
		return "I1-I3 on the survivors, I9 + I6-I7"
	case s.Shards > 0:
		return "I1-I3, I5, I9 + I8"
	default:
		return "I1-I5 + I9"
	}
}

// randomScheme draws one of the three replication schemes.
func randomScheme(rng *rand.Rand) core.ReplicationScheme {
	switch rng.Intn(3) {
	case 0:
		return core.Eager
	case 1:
		return core.Lazy
	default:
		return core.Chain
	}
}

// DefaultScenario derives a randomized scenario from a seed: cluster
// shape, replication scheme, and a fault.RandomPlan all follow from the
// seed, so a sweep over seeds explores the space reproducibly.
func DefaultScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	s := Scenario{Seed: seed, Secondaries: rng.Intn(3)}.withDefaults()
	if s.Secondaries > 0 {
		s.Scheme = randomScheme(rng)
	}
	s.Plan = fault.RandomPlan(rng, s.Window, s.Secondaries > 0, PrimaryName)
	return s
}

// Result summarizes one run. Violations lists every invariant breach
// observed (empty on a clean run); Fingerprint digests the full event
// history for the determinism check.
type Result struct {
	Seed        int64
	Secondaries int
	Scheme      core.ReplicationScheme
	PowerLost   bool // a primary lost power (always, on a KillAt run)

	Commits  int64 // committed transactions (live engine)
	Written  int64 // bytes of the oracle stream: what the host handed to the sink
	Destaged int64 // bytes the (final) primary moved to the conventional side
	Durable  int64 // final durable horizon of the WAL
	Firings  int   // fault rules that fired
	Events   int64 // simulator events dispatched (perf-suite accounting)

	// Checkpoints counts the fuzzy checkpoints that reached their durable
	// record (paged runs only; always 0 for the classic engine).
	Checkpoints int64

	StallSeen     bool          // status register showed StatusReplicaStalled
	MaxSuppressed time.Duration // longest observed shadow-suppression stretch

	// KillAt runs only. PreKillCommits and DurableAtKill snapshot what the
	// takeover must preserve; Promoted, ResumeAt, Replayed, Backfilled
	// mirror the manager's Takeover record and DetectToLive is its
	// promotion latency.
	PreKillCommits int64
	DurableAtKill  int64
	Promoted       string
	ResumeAt       int64
	Replayed       int64
	Backfilled     int64
	DetectToLive   time.Duration

	// Metrics is the canonical JSON metrics snapshot of the whole run —
	// the second I5 ingredient: a re-run must reproduce it byte for byte.
	Metrics []byte

	Fingerprint uint64
	Violations  []string
}

// recordingSink wraps a sink and keeps the exact byte stream the host
// handed down — the oracle every prefix invariant is checked against.
// Bytes are recorded before the inner write so a power loss mid-write
// leaves the device with a prefix of the recording, never the reverse.
type recordingSink struct {
	inner wal.Sink
	buf   *[]byte
}

// Write implements wal.Sink.
func (s *recordingSink) Write(p *sim.Proc, data []byte) error {
	*s.buf = append(*s.buf, data...)
	return s.inner.Write(p, data)
}

// Name implements wal.Sink.
func (s *recordingSink) Name() string { return s.inner.Name() }

// stallMonitor is the I4 oracle: it polls the primary's status register
// and, independently, watches for stretches where a direct peer's shadow
// reporting is being suppressed while data is outstanding — exactly the
// condition under which the register must eventually show
// StatusReplicaStalled.
type stallMonitor struct {
	seen          bool
	maxSuppressed time.Duration
}

// Run executes one scenario and checks every invariant its axes give a
// precondition for (I5/I7 is checked by the caller across two runs, via
// Result.Fingerprint and Result.Metrics). The returned error reports
// harness failures and scenarios the harness cannot run as asked;
// invariant breaches land in Result.Violations.
func Run(s Scenario) (*Result, error) {
	s = s.withDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	if s.Shards > 0 {
		return runSharded(s)
	}
	return runSingle(s)
}

// runSingle is the single-primary runner: one primary, its secondaries,
// one host-side WAL + engine + TPC-C workers, with the boot taking the
// kill, paged or classic arm.
//
// Every pinned fingerprint digests the exact event history, and a kill
// run's differs from the others' in five places. Those stay, as the
// `kill` branches marked (1)-(5): folding any of them would re-pin every
// failover fingerprint for no change in what is checked.
func runSingle(s Scenario) (*Result, error) {
	kill := s.KillAt > 0
	plan := s.Plan
	if kill {
		plan = &fault.Plan{Rules: append(append([]fault.Rule(nil), s.Plan.Rules...), fault.Rule{
			Trigger: fault.TriggerAt, At: s.KillAt, Point: fault.PrimaryKill, Action: fault.ActionFail,
		})}
	}

	// Injectors attach inside newEngine, before building devices, so
	// at-time power-loss rules arm.
	en := newEngine(s.Seed, s.SimWorkers, s.Secondaries, plan)
	defer en.detach()
	defer en.group.Close()
	env := en.host

	prim := shard.DefaultDevice(env, PrimaryName)
	devices := []*villars.Device{prim}
	for i := 0; i < s.Secondaries; i++ {
		devices = append(devices, shard.DefaultDevice(en.deviceEnv(i+1), fmt.Sprintf("s%d", i)))
	}
	var cluster *repl.Cluster
	if len(devices) > 1 {
		var err error
		cluster, err = repl.New(env, devices)
		if err != nil {
			return nil, err
		}
	}

	tcfg := tpcc.Config{Warehouses: 2, Districts: 2, CustomersPerDistrict: 8, Items: 40, FillerLen: 10}
	load := func(e *db.Engine) { tpcc.Load(e, tcfg, loadSeed) }
	// (1) Non-kill runs draw once here; every later draw and pinned fold depends on it.
	if !kill {
		env.Rand().Int63()
	}
	var (
		written   []byte
		lg        *wal.Log
		eng       *db.Engine
		ckptMgr   *ckpt.Manager
		fo        *failover.Manager
		pagedBase int64
		bootErr   error
		stop      bool
	)
	r := &Result{Seed: s.Seed, Secondaries: s.Secondaries, Scheme: s.Scheme}

	if kill {
		// The kill: resolve "the current primary" when the rule fires, and
		// snapshot the committed state the takeover must preserve. The
		// rule is armed on the host member's injector: the hook reads
		// host-side state (engine stats, durable LSN) and the primary lives
		// on the host member, so the power loss lands on the victim's own
		// Env.
		en.injs[0].OnTime(fault.PrimaryKill, "", func() {
			p := cluster.Primary()
			if p == nil || p.PowerLost() {
				return
			}
			if eng != nil {
				r.PreKillCommits, _ = eng.Stats()
			}
			if lg != nil {
				r.DurableAtKill = lg.DurableLSN()
			}
			p.InjectPowerLoss()
		})
	}

	env.Go("chaos-boot", func(p *sim.Proc) {
		if cluster != nil {
			if bootErr = cluster.Setup(p, 0, s.Scheme); bootErr != nil {
				return
			}
		}
		sink := wal.NewVillarsSink(p, prim, "chaos")
		wcfg := wal.Config{GroupBytes: 4 << 10, GroupTimeout: 500 * time.Microsecond}
		if kill {
			// (2) No host recording — two sinks will see traffic. The log
			// retains the flushed stream instead: the takeover's backfill
			// and tail replay are served from that copy (paper §7.1 assigns
			// catch-up transfer to the database), and so is the oracle. The
			// manager starts right after the log: its watchdog's spawn
			// order relative to the workers is part of the event history.
			wcfg.Retain = true
			lg = wal.NewLog(env, sink, wcfg)
			fo = failover.New(env, cluster, lg, sink)
		} else {
			lg = wal.NewLog(env, &recordingSink{inner: sink, buf: &written}, wcfg)
		}
		if s.Paged {
			// Page slots live above the destage rings on the conventional
			// side; DMA staging sits at the top of host memory (the WAL
			// path rides the CMB, so nothing else maps that region).
			pagedBase, bootErr = prim.AllocLBARange(pagedSlots)
			if bootErr != nil {
				return
			}
			scratch := int64(len(prim.HostMemory().Bytes())) - btree.DeviceScratchSize(prim.BlockSize())
			store := btree.NewDeviceStore(prim, pagedBase, pagedSlots, scratch)
			pager := btree.NewPager(store, btree.Config{PoolPages: pagedPool, Scope: obs.For(env).Scope(PrimaryName + "/pager")})
			eng = db.NewPaged(env, lg, pager)
			ckptMgr = ckpt.NewManager(eng, lg, ckpt.Config{Interval: pagedCkptInterval, Scope: obs.For(env).Scope(PrimaryName + "/ckpt")})
			env.Go("chaos-ckpt", ckptMgr.Run)
		} else {
			eng = db.New(env, lg)
		}
		load(eng)
		// (3) Workers exit with a dead log — except on kill runs, where
		// they outlive the primary: they block on backlog back-pressure
		// while the pipeline is down and resume once the takeover restarts
		// it.
		done := func() bool { return stop || (!kill && lg.Dead()) }
		for w := 0; w < s.Workers; w++ {
			w := w
			env.Go(fmt.Sprintf("chaos-worker-%d", w), func(p *sim.Proc) {
				client := tpcc.NewClient(eng, tcfg, s.Seed*97+int64(w)+1, w%tcfg.Warehouses+1)
				for !done() {
					lg.WaitBacklog(p, 32<<10)
					if done() {
						return
					}
					// Think time sized so a window's worth of log traffic
					// stays well inside the destage LBA ring — the flash
					// verifier needs the whole stream still resident.
					p.Sleep(100 * time.Microsecond)
					client.RunMixAsync(p)
				}
			})
		}
		// Bring-up walked every member's state directly (role commands,
		// peer wiring); only now may members run concurrently.
		en.group.Parallelize()
	})

	mon := &stallMonitor{}
	// (4) Kill runs have no stall monitor — it costs events, and the
	// register it polls dies with the primary — and, below, do not wait
	// out a post-crash drain: the takeover is their recovery.
	if cluster != nil && !kill {
		// Direct peers of the primary: the replicas whose staleness the
		// primary's own status register is responsible for surfacing. In
		// a chain the primary only watches its successor.
		direct := devices[1:]
		if s.Scheme == core.Chain {
			direct = devices[1:2]
		}
		// The monitor is primary-affine: it reads only the primary's own
		// view of its peers (shadow counters, last counter-update times)
		// plus the status register over MMIO. Reaching into a secondary's
		// fault counters would be a cross-Env access (envaffinity) — and
		// an oracle a real host could never implement, since it only has
		// the primary's BAR in front of it. A peer is considered silent
		// while its last-seen timestamp stops moving with mirror data
		// outstanding; the streak length is what I4 compares against the
		// stall bit. The sampling cadence (one register load + one 50µs
		// sleep per iteration) is unchanged so the event schedule — and
		// with it the perf suite's chaos-cell fingerprint — stays put.
		n := len(direct)
		env.Go("chaos-monitor", func(p *sim.Proc) {
			mm := pcie.NewMMIO(prim.ControlRegion(), pcie.Uncached)
			lastAt := make([]time.Duration, n)
			since := make([]time.Duration, n)
			active := make([]bool, n)
			for {
				b := mm.Load(p, core.RegStatus, 8)
				var st int64
				for i := 0; i < 8; i++ {
					st |= int64(b[i]) << (8 * i)
				}
				if st&core.StatusReplicaStalled != 0 {
					mon.seen = true
				}
				tr := prim.Transport()
				for i := 0; i < n; i++ {
					seen := tr.PeerLastSeen(i)
					outstanding := prim.CMB().Ring().Frontier() > tr.Shadow(i)
					if outstanding && seen > 0 && seen == lastAt[i] {
						if !active[i] {
							active[i] = true
							since[i] = p.Now()
						}
						if d := p.Now() - since[i]; d > mon.maxSuppressed {
							mon.maxSuppressed = d
						}
					} else {
						active[i] = false
					}
					lastAt[i] = seen
				}
				p.Sleep(50 * time.Microsecond)
			}
		})
	}

	en.group.RunUntil(s.Window)
	if bootErr != nil {
		return nil, fmt.Errorf("chaos: boot: %w", bootErr)
	}
	stop = true
	if ckptMgr != nil {
		// Exit after the in-flight attempt (if any) so the checkpoint
		// record traffic quiesces inside the settle window — the no-crash
		// I1 checks demand a drained WAL at the cut.
		ckptMgr.Stop()
	}
	en.group.RunUntil(s.Window + s.Settle)
	if fo != nil {
		fo.Stop()
	}

	r.PowerLost = prim.PowerLost()
	if !kill && r.PowerLost && !prim.Drained() {
		en.group.RunUntil(en.group.Now() + 300*time.Millisecond)
	}
	v := &violations{}

	r.Durable = lg.DurableLSN()
	r.Commits, _ = eng.Stats()
	r.Firings = en.firings()
	r.StallSeen = mon.seen
	r.MaxSuppressed = mon.maxSuppressed
	if ckptMgr != nil {
		r.Checkpoints = ckptMgr.Completed()
	}

	// Live-engine fingerprint. The classic engine walks in-memory maps;
	// a paged engine reads pages through the device, so its walk runs as
	// a post-mortem process on the host event loop (single-threaded by
	// now — the flashPrefix pattern). After a power loss the pool may
	// have evicted pages only the dead host path could reload, so the
	// live fingerprint is deterministically skipped.
	var liveFP uint64
	liveFPOK := false
	if !s.Paged {
		liveFP, liveFPOK = eng.Fingerprint(), true
	} else if !r.PowerLost {
		env.Go("chaos-paged-livefp", func(p *sim.Proc) {
			liveFP = eng.FingerprintIn(p)
			liveFPOK = true
		})
		env.RunUntil(env.Now() + 100*time.Millisecond)
		if !liveFPOK {
			v.add("I9", "live paged fingerprint walk did not finish")
		}
	}

	// Whose conventional side, whose replicas, against which stream: the
	// primary and its secondaries against the host recording — or, after
	// a takeover, the promoted device and the other survivors against the
	// retained stream (conv is nil when the takeover left no device to
	// inspect; checkTakeover has said why).
	conv, replicas, oracle := prim, devices[1:], written
	replicaLimit, converged := prim.CMB().Ring().Frontier(), !r.PowerLost
	i1, i2, i3 := "I1", "I2", "I3"
	if kill {
		i1, i2, i3 = "I6", "I6", "I6"
		conv, oracle = checkTakeover(v, r, fo, cluster, lg, prim)
		replicas = nil
		for _, d := range devices {
			if !d.PowerLost() && d != conv {
				replicas = append(replicas, d)
			}
		}
		replicaLimit, converged = r.Durable, true
	}
	r.Written = int64(len(oracle))

	// ---- I4: a stale replica must be surfaced in the status register --
	// One-directional: a long suppression stretch with data outstanding
	// must raise the bit; the bit may also show for shorter transients.
	if mon.maxSuppressed > 2*chaosStallTimeout && !mon.seen {
		v.add("I4", "shadow suppressed for %v with data outstanding, stall bit never set", mon.maxSuppressed)
	}

	if conv != nil {
		// ---- I3: replicas hold a prefix of the stream -----------------
		checkReplicaPrefix(v, i3, replicas, oracle, replicaLimit, converged)

		// ---- I1: gap-free conventional prefix -------------------------
		r.Destaged = conv.Destage().DestagedStream()
		prefix, err := checkConventionalPrefix(v, i1, conv, lg, oracle)
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		if prefix != nil {
			// ---- I2: crash-recovery equality --------------------------
			// A takeover leaves the live engine running on the survivor,
			// so the two stay comparable across that crash.
			records := wal.DecodeAll(prefix)
			recovered := checkRecovery(v, i2, env, load, prefix, oracle, liveFP, liveFPOK && (kill || !r.PowerLost))
			if kill {
				checkCommittedSurvive(v, r, recovered, records)
			}

			// ---- I9: checkpoint-bounded recovery equality -------------
			if s.Paged {
				v.extend(livePagedI9(prim, pagedBase, r.Checkpoints, records, tcfg, liveFP, liveFPOK))
			} else {
				v.extend(syntheticPagedI9(s.Seed, records, load))
			}
		}
	}

	// ---- I5 ingredients: event-history fingerprint + metrics snapshot -
	snap := obs.SnapshotOf(en.envs)
	r.Metrics = snap.Encode()
	fp := obs.FNVOffset
	for _, d := range devices {
		fp = obs.Mix64(fp, d.Tracer().Fingerprint())
	}
	if liveFPOK {
		fp = obs.Mix64(fp, liveFP)
	}
	fp = obs.Mix64(fp, uint64(r.Commits))
	// (5) Kill runs fold the takeover record where the others fold the
	// stream counters; one formula would re-pin one kind for nothing.
	ingredients := []int64{r.Written, r.Destaged}
	if kill {
		ingredients = []int64{r.Durable, r.ResumeAt, r.Replayed, r.Backfilled, int64(r.DetectToLive)}
	}
	for _, x := range ingredients {
		fp = obs.Mix64(fp, uint64(x))
	}
	fp = obs.Mix64(fp, uint64(r.Firings))
	fp = obs.Mix64(fp, snap.Fingerprint())
	r.Fingerprint = fp
	r.Events = en.group.Events()
	r.Violations = v.list
	return r, nil
}
