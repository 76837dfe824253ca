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
//	    bit-identical to a full replay of the durable stream, and finds
//	    a checkpoint once one completed — paged runs check it against
//	    the primary's own page slots, every other run against a
//	    synthetic checkpoint schedule (paged.go).
//
// I6-I7 (takeover safety and determinism) and I8 (cross-shard atomicity)
// belong to the KillAt and Shards axes: failover.go, shard.go. There is
// one Scenario, one Run and one Sweep; the prefix disciplines behind
// I1-I3 are stated once (invariants.go), and one post-window path
// (finish) checks and folds every run's stacks alike, a lone stack being
// a cluster of one.
//
// A Scenario is fully deterministic: (Seed, Plan) and the cluster shape
// determine every event, so any violation replays exactly.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"xssd/internal/core"
	"xssd/internal/db"
	"xssd/internal/fault"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/shard"
	"xssd/internal/sim"
	"xssd/internal/stack"
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

// Scenario describes one chaos run. (Seed, Plan) plus the shape fields
// fully determine the execution; Run on an identical Scenario replays
// identically (invariants I5 and I7).
//
// Shards, Paged and KillAt are the axes beyond the replicated single
// primary. Each is implemented against the plain configuration only, so
// Run rejects any two of them together rather than silently dropping one
// (stack.Config.Validate).
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
	// Window is how long the workload runs before it is stopped; 0 means
	// 30 ms. At-triggered fault rules should fire inside the window.
	Window time.Duration
	// SimWorkers is how many quantum executors run the scenario's
	// sim.Group; values below 1 mean 1, the serial runner. The placement
	// (stack.New) does not depend on it, so runs with the same (Seed, Plan,
	// shape) are byte-identical at every SimWorkers. A KillAt run keeps the
	// group inline to the end, so SimWorkers then changes nothing.
	SimWorkers int
	// Shards, when > 0, runs the sharded-cluster scenario instead of the
	// single-primary one: Shards primary devices partitioning 2*Shards
	// warehouses, cross-shard 2PC, and invariant I8 on top of the
	// classics (see shard.go).
	Shards int
	// Paged stores the database in B+tree pages on the primary's
	// conventional side with a background fuzzy-checkpoint manager
	// (stack.Paged), and checks invariant I9 against the device's own
	// checkpointed page slots (see paged.go). Every other run checks I9 post
	// mortem against a synthetic checkpoint schedule that costs no virtual
	// time.
	Paged bool
	// KillAt, when > 0, kills whichever device is primary at that instant
	// and lets a failover.Manager promote a survivor mid-workload
	// (invariants I6-I7, see failover.go). It needs at least one secondary
	// and must fall inside the window, after boot (the first millisecond).
	KillAt time.Duration
}

// Every scenario runs scenarioWorkers TPC-C worker processes, and gives
// the stack settleTime to quiesce after the workload stops (flush,
// destage, repair, catch-up).
const (
	scenarioWorkers = 2
	settleTime      = 20 * time.Millisecond
)

// oracleWAL is every chaos stack's log: the chaos batching, retaining
// its stream. What the host appended to that log is the oracle every
// invariant holds a device to (logStream).
var oracleWAL = wal.Config{GroupBytes: shard.DefaultWAL.GroupBytes, GroupTimeout: shard.DefaultWAL.GroupTimeout, Retain: true}

// logStream returns everything the host appended to lg: the retained
// durable prefix, any batch a sink write still holds, and the unflushed
// tail.
func logStream(lg *wal.Log) ([]byte, error) { return lg.StreamRange(0, lg.AppendedLSN()) }

// terminal is a TPC-C worker's loop: wait out the log's back-pressure,
// think, run one transaction, until done. The think time is sized so a
// window's worth of log traffic stays well inside the destage LBA ring —
// the flash verifier needs the whole stream still resident.
func terminal(lg *wal.Log, done func() bool, run func(p *sim.Proc)) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		for !done() {
			lg.WaitBacklog(p, 32<<10)
			if done() {
				return
			}
			p.Sleep(100 * time.Microsecond)
			run(p)
		}
	}
}

func (s Scenario) withDefaults() Scenario {
	if s.Plan == nil {
		s.Plan = &fault.Plan{}
	}
	if s.Window <= 0 {
		s.Window = 30 * time.Millisecond
	}
	return s
}

// validate rejects a scenario the harness cannot run as asked: a
// malformed plan, a kill outside the window, or a stack whose parts are
// not composed yet (stack.Config.Validate) — each pair would run with one
// axis quietly ignored while the summary claimed its invariant. Call
// after withDefaults.
func (s Scenario) validate() error {
	if err := s.Plan.Validate(); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if s.KillAt != 0 && (s.KillAt < 0 || s.KillAt >= s.Window) {
		return fmt.Errorf("chaos: kill time %v outside the window %v", s.KillAt, s.Window)
	}
	if err := s.stackShape().Validate(); err != nil {
		return fmt.Errorf("chaos: scenario: %w", err)
	}
	return nil
}

// stackShape is the stack a scenario asks for: the replica shape, the
// engine and a kill's failover. A sharded scenario is checked as the
// stack of its shard 0; the others are alike.
func (s Scenario) stackShape() stack.Config {
	c := stack.Config{Secondaries: s.Secondaries, Scheme: s.Scheme, Failover: s.KillAt != 0}
	if s.Paged {
		c.Paged = &stack.Paged{Slots: pagedSlots, Pool: pagedPool}
	}
	if s.Shards > 0 {
		c.Shard = shard.Scope(0)
	}
	return c
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
	Written  int64 // bytes of the oracle stream: everything the host appended to its log
	Destaged int64 // bytes the (final) primary moved to the conventional side
	Durable  int64 // final durable horizon of the WAL
	Firings  int   // fault rules that fired
	Events   int64 // simulator events dispatched (perf-suite accounting)
	Stray    int64 // cross-member touches around the conduits (sim.GroupStats.Stray); counted by the serial runner only

	// Checkpoints counts the fuzzy checkpoints that reached their durable
	// record and CkptAborted the attempts that aborted (paged runs only;
	// both always 0 for the classic engine).
	Checkpoints, CkptAborted int64
	// Fetched counts the pages the live engine's Tx.Fetch calls asked the
	// pager for, the ones Want found cold (db.Engine.Fetched; 0 on the
	// classic engine).
	Fetched int64

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

// runSingle is the single-primary runner: one stack — primary, its
// secondaries, host-side WAL and engine, classic or paged — and the TPC-C
// workers, with a kill run's failover manager inside the stack. After the
// window it checks I4 and hands the stack to finish.
//
// A kill run differs from the others in the three places marked (1)-(3),
// each one something the takeover needs.
func runSingle(s Scenario) (*Result, error) {
	kill := s.KillAt > 0
	cfg := s.stackShape()
	cfg.Seed, cfg.Workers, cfg.Plan = s.Seed, s.SimWorkers, s.Plan
	if kill {
		cfg.Plan = &fault.Plan{Rules: append(append([]fault.Rule(nil), s.Plan.Rules...), fault.Rule{
			Trigger: fault.TriggerAt, At: s.KillAt, Point: fault.PrimaryKill, Action: fault.ActionFail,
		})}
	}
	cfg.Device = func(env *sim.Env, i int) *villars.Device {
		if i == 0 {
			return shard.DefaultDevice(env, PrimaryName)
		}
		return shard.DefaultDevice(env, fmt.Sprintf("s%d", i-1))
	}
	tcfg := ShardTPCC(1) // the sharded runs' shape, one shard's worth
	load := func(e *db.Engine) { tpcc.Load(e, tcfg, loadSeed) }
	cfg.Sink, cfg.Load, cfg.WAL = "chaos", load, oracleWAL
	st, err := stack.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	defer st.Close()
	env, prim, devices := st.Host, st.Primary, st.Devices

	var (
		bootErr error
		stop    bool
	)
	r := &Result{Seed: s.Seed, Secondaries: s.Secondaries, Scheme: s.Scheme}

	if kill {
		// The kill: resolve "the current primary" when the rule fires, and
		// snapshot the committed state the takeover must preserve. The
		// rule is armed on the host member's injector: the hook reads
		// host-side state (engine stats, durable LSN) and the primary lives
		// on the host member, so the power loss lands on the victim's own
		// Env.
		st.Faults.Injectors[0].OnTime(fault.PrimaryKill, "", func() {
			p := st.Repl.Primary()
			if p == nil || p.PowerLost() {
				return
			}
			if st.Engine != nil {
				r.PreKillCommits, _ = st.Engine.Stats()
			}
			if st.Log != nil {
				r.DurableAtKill = st.Log.DurableLSN()
			}
			p.InjectPowerLoss()
		})
	}

	env.Go("chaos-boot", func(p *sim.Proc) {
		if bootErr = st.Boot(p); bootErr != nil {
			return
		}
		if st.Ckpt != nil {
			env.Go("chaos-ckpt", st.Ckpt.Run)
		}
		eng, lg := st.Engine, st.Log
		// (1) Workers exit with a dead log — except on kill runs, where
		// they outlive the primary: they block on backlog back-pressure
		// while the pipeline is down and resume once the takeover restarts
		// it.
		done := func() bool { return stop || (!kill && lg.Dead()) }
		for w := 0; w < scenarioWorkers; w++ {
			client := tpcc.NewClient(eng, tcfg, s.Seed*97+int64(w)+1, w%tcfg.Warehouses+1)
			env.Go(fmt.Sprintf("chaos-worker-%d", w), terminal(lg, done, func(p *sim.Proc) { client.RunMixAsync(p) }))
		}
		// Bring-up walked every member's state directly (role commands,
		// peer wiring); only now may members run concurrently. (2) A kill
		// run stays inline: its takeover walks them again.
		if !kill {
			st.Group.Parallelize()
		}
	})

	// The stall monitor is the I4 oracle: it polls the primary's status
	// register and, independently, watches for stretches where a direct
	// peer's shadow reporting is being suppressed while data is
	// outstanding — exactly the condition under which the register must
	// eventually show StatusReplicaStalled (r.StallSeen, r.MaxSuppressed).
	// (3) Kill runs have none: it costs events, and the register it polls
	// dies with the primary.
	if st.Repl != nil && !kill {
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
					r.StallSeen = true
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
						if d := p.Now() - since[i]; d > r.MaxSuppressed {
							r.MaxSuppressed = d
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

	st.Group.RunUntil(s.Window)
	if bootErr != nil {
		return nil, fmt.Errorf("chaos: boot: %w", bootErr)
	}
	stop = true
	if st.Ckpt != nil {
		// Exit after the in-flight attempt (if any) so the checkpoint
		// record traffic quiesces inside the settle window — the no-crash
		// I1 checks demand a drained WAL at the cut.
		st.Ckpt.Stop()
	}
	st.Group.RunUntil(s.Window + settleTime)
	if st.Failover != nil {
		st.Failover.Stop()
	}

	r.Commits, _ = st.Engine.Stats()
	r.Firings = st.Faults.Firings()
	v := &violations{}
	// ---- I4: a stale replica must be surfaced in the status register --
	// One-directional: a long suppression stretch with data outstanding
	// must raise the bit; the bit may also show for shorter transients.
	if r.MaxSuppressed > 2*shard.DefaultStallTimeout && !r.StallSeen {
		v.add("I4", "shadow suppressed for %v with data outstanding, stall bit never set", r.MaxSuppressed)
	}
	return finish(r, v, []*stack.Stack{st}, make([][]int64, 1), func(e *db.Engine, _ int) { load(e) })
}

// finish is every run's post-window path, over its stacks: one for a lone
// run, one per shard for a sharded one — a lone stack is a cluster of one.
// The caller has run the window and the settle time and filled r's
// Commits and Firings (and a kill's snapshot of what the takeover must
// keep); acked[i] lists the cross-shard gids stack i acknowledged (none
// on a lone run) and load(e, i) loads stack i's initial rows. In order,
// finish waits for any crashed device to drain, takes each stack's live
// fingerprint, holds each stack's devices to its own log's stream (I1, I3;
// I6 and the takeover on a stack with a failover manager), recovers every
// prefix in one check (I2, I8), checks I9 on each stack, and folds the run
// (the I5 ingredients).
func finish(r *Result, v *violations, stacks []*stack.Stack, acked [][]int64, load func(*db.Engine, int)) (*Result, error) {
	g, n := stacks[0].Group, len(stacks)

	// A takeover is a kill run's recovery; any other crashed primary is
	// given time to drain its ring.
	drain := false
	for _, st := range stacks {
		if st.Primary.PowerLost() {
			r.PowerLost = true
			drain = drain || (st.Failover == nil && !st.Primary.Drained())
		}
	}
	if drain {
		g.RunUntil(g.Now() + 300*time.Millisecond)
	}

	// Live-engine fingerprints. The classic engine walks in-memory maps; a
	// paged engine reads pages through the device, so its walk runs as a
	// post-mortem reader on the host member (stack.PostMortem). After a
	// power loss the pool may have evicted pages only the dead host path
	// could reload, so that walk is deterministically skipped.
	live, liveOK := make([]uint64, n), make([]bool, n)
	for i, st := range stacks {
		v.locate(i, n)
		eng := st.Engine
		r.Fetched += eng.Fetched()
		if st.Ckpt != nil {
			r.Checkpoints += st.Ckpt.Completed()
			r.CkptAborted += st.Ckpt.Aborted()
			if err := st.Ckpt.Err(); err != nil {
				v.add("I9", "checkpoint manager stopped: %v", err)
			}
		}
		if st.Pager == nil {
			live[i], liveOK[i] = eng.Fingerprint(), true
		} else if !st.Primary.PowerLost() {
			liveOK[i] = stack.PostMortem(st.Host, "chaos-paged-livefp", 100*time.Millisecond, func(p *sim.Proc) {
				live[i] = eng.FingerprintIn(p)
			})
			if !liveOK[i] {
				v.add("I9", "live paged fingerprint walk did not finish")
			}
		}
	}

	// Each stack's conventional side and replicas — the primary and its
	// secondaries, or after a takeover the promoted device and the other
	// survivors (none when the takeover left no device to inspect;
	// checkTakeover has said why) — held to its own log's stream.
	oracles, prefixes := make([][]byte, n), make([][]byte, n)
	kill := false
	for i, st := range stacks {
		v.locate(i, n)
		lg, prim := st.Log, st.Primary
		if err := lg.Err(); err != nil && !errors.Is(err, wal.ErrSinkLost) {
			// Only a lost device may halt the log: any other failed flush
			// froze the durable horizon under a live primary.
			v.add("I1", "log halted: %v", err)
		}
		oracle, err := logStream(lg)
		if err != nil {
			return nil, fmt.Errorf("chaos: %soracle stream: %w", v.prefix, err)
		}
		oracles[i] = oracle
		r.Written += int64(len(oracle))
		r.Durable += lg.DurableLSN()
		conv, replicas := prim, st.Devices[1:]
		limit, converged := prim.CMB().Ring().Frontier(), !prim.PowerLost()
		i1, i3 := "I1", "I3"
		if st.Failover != nil {
			kill = true
			i1, i3 = "I6", "I6"
			conv = checkTakeover(v, r, st.Failover, st.Repl, lg, prim)
			replicas = nil
			for _, d := range st.Devices {
				if !d.PowerLost() && d != conv {
					replicas = append(replicas, d)
				}
			}
			limit, converged = lg.DurableLSN(), true
		}
		if conv == nil {
			continue
		}
		// ---- I3: replicas hold a prefix of the stream -----------------
		if err := checkReplicaPrefix(v, i3, replicas, oracle, limit, converged); err != nil {
			return nil, fmt.Errorf("chaos: %s%w", v.prefix, err)
		}
		// ---- I1: gap-free conventional prefix -------------------------
		r.Destaged += conv.Destage().DestagedStream()
		if prefixes[i], err = checkConventionalPrefix(v, i1, conv, lg, oracle); err != nil {
			return nil, fmt.Errorf("chaos: %s%w", v.prefix, err)
		}
	}
	v.prefix = ""

	// ---- I2 + I8: recovery from every flash prefix, in one check ------
	// A takeover leaves the live engine running on the survivor, so the
	// two stay comparable across that crash; any other power loss does not.
	var want []uint64
	if (!r.PowerLost || kill) && !slices.Contains(liveOK, false) {
		want = live
	}
	i2 := "I2"
	if kill {
		i2 = "I6"
	}
	recovered := checkRecovery(v, i2, prefixes, oracles, acked, load, want)

	// ---- I9: checkpoint-bounded recovery equality, per stack ----------
	// A stack with a checkpoint manager is held to its own page slots;
	// every other one replays its prefix into a synthetic checkpoint
	// schedule (paged.go), which spends no virtual time. Both presume a
	// shard's in-doubt prepares aborted; I2 above checks those against the
	// coordinators' decisions.
	for i, st := range stacks {
		if prefixes[i] == nil {
			continue
		}
		v.locate(i, n)
		records := wal.DecodeAll(prefixes[i])
		if st.Failover != nil {
			checkCommittedSurvive(v, r, recovered, i, records)
		}
		loadOne := func(e *db.Engine) { load(e, i) }
		if st.Ckpt != nil {
			v.extend(livePagedI9(st, records, loadOne, live[i], liveOK[i]))
		} else {
			v.extend(syntheticPagedI9(sim.MemberSeed(r.Seed, i), records, loadOne))
		}
	}
	v.prefix = ""

	// ---- I5 ingredients: event-history fingerprint + metrics snapshot -
	snap := obs.SnapshotOf(g.Envs())
	r.Metrics = snap.Encode()
	fp := obs.FNVOffset
	for i, st := range stacks {
		for _, d := range st.Devices {
			fp = obs.Mix64(fp, d.Tracer().Fingerprint())
		}
		if liveOK[i] {
			fp = obs.Mix64(fp, live[i])
		}
		for _, gid := range acked[i] {
			fp = obs.Mix64(fp, uint64(gid))
		}
	}
	fp = obs.Mix64(fp, uint64(r.Commits))
	// The stream counters and the takeover record (zero without a kill).
	for _, x := range []int64{r.Written, r.Destaged, r.Durable, r.ResumeAt, r.Replayed, r.Backfilled, int64(r.DetectToLive)} {
		fp = obs.Mix64(fp, uint64(x))
	}
	fp = obs.Mix64(fp, uint64(r.Firings))
	fp = obs.Mix64(fp, snap.Fingerprint())
	r.Fingerprint = fp
	r.Events = g.Events()
	r.Stray = g.Stats().Stray
	r.Violations = v.list
	return r, nil
}
