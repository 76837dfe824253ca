// Package shard scales the single-device X-SSD stack out to a cluster:
// TPC-C warehouses are partitioned across N primary devices, each an
// independent sim.Group member with its own replica set and WAL
// group-commit pipeline, and cross-shard transactions commit through a
// deterministic two-phase commit whose coordinator log rides the
// coordinator device's own fast-side ring — prepare, decision, and
// commit-point records are ordinary WAL entries, so crash recovery and
// the chaos invariants extend to the cluster without a separate
// commit-log service (invariant I8: no cross-shard atomicity violation
// after any single kill).
//
// Topology: shard i's primary device, WAL flusher, database engine, and
// terminals all live on member Env "sh<i>"; each of its secondaries gets
// a member of its own, placed after every shard's "sh<i>" (internal/stack
// builds each shard on them). The only cross-shard channel is the RPC
// conduit in rpc.go, built on Env.PostTo, so runs are byte-identical for
// every worker count.
package shard

import (
	"errors"
	"fmt"
	"time"

	"xssd/internal/core"
	"xssd/internal/db"
	"xssd/internal/nand"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/sim"
	"xssd/internal/stack"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// ErrUnavailable reports a cross-shard operation that could not reach its
// peer (dropped or timed-out RPC, or a peer whose log died). It is
// retryable in principle but, unlike db.ErrConflict, retrying immediately
// is usually pointless. Match with errors.Is.
var ErrUnavailable = errors.New("shard: peer unavailable")

// Config shapes a shard cluster. The zero value is invalid: Shards and
// Warehouses must be set. Secondaries, Scheme, WAL, Device and Load shape
// every shard's stack (stack.Config), whose log sink is named after the
// shard's primary.
type Config struct {
	// Shards is the number of primary devices (>= 1); shard i's primary
	// is named "p<i>".
	Shards int
	// Warehouses is the total warehouse count partitioned across the
	// shards. It must divide evenly by Shards so OwnerOf stays a pure
	// O(1) function of the pair.
	Warehouses int
	// Secondaries is how many replica devices each shard attaches
	// (0 = standalone primaries). Shard i's j-th secondary is named
	// "s<i>.<j>" and lives on its own group member.
	Secondaries int
	// Scheme selects the replication scheme when Secondaries > 0.
	Scheme core.ReplicationScheme
	// SimWorkers is how many quantum executors run the cluster's
	// sim.Group; values below 1 mean 1, the serial runner. Every shard and
	// every secondary has a member of its own whatever the count, so all
	// runs of one config are byte-identical to each other.
	SimWorkers int
	// Seed seeds shard 0's Env; further members derive theirs with a
	// splitmix64 finalizer, so (Seed, shape) fixes the whole run.
	Seed int64
	// WAL configures every shard's log. A zero batching uses DefaultWAL's
	// rather than wal.DefaultConfig's, which is sized for full-scale figure
	// runs.
	WAL wal.Config
	// Device builds one device; nil means DefaultDevice. Harnesses
	// override it to apply their own geometry or tracing setup.
	Device func(env *sim.Env, name string) *villars.Device
	// Load populates shard i's engine with its partition of the initial
	// rows; nil leaves engines empty. It runs during Boot, before any
	// terminal starts.
	Load func(eng *db.Engine, shardID int)
}

func (c Config) withDefaults() Config {
	if c.WAL.GroupBytes == 0 && c.WAL.GroupTimeout == 0 {
		c.WAL.GroupBytes, c.WAL.GroupTimeout = DefaultWAL.GroupBytes, DefaultWAL.GroupTimeout
	}
	if c.Device == nil {
		c.Device = DefaultDevice
	}
	return c
}

// OwnerOf maps a warehouse id (1-based) to its owning shard. Pure, so
// routers, loaders, and oracles agree without sharing state.
func OwnerOf(warehouse, shards, warehouses int) int {
	per := warehouses / shards
	s := (warehouse - 1) / per
	if s >= shards {
		s = shards - 1
	}
	return s
}

// DefaultWAL is the small chaos-style log batching (4 KiB / 500 µs) of
// every chaos-sized stack: a cluster whose Config.WAL is zero, and the
// single-primary chaos runs.
var DefaultWAL = wal.Config{GroupBytes: 4 << 10, GroupTimeout: 500 * time.Microsecond}

// DefaultStallTimeout is DefaultDevice's replica stall timeout; the chaos
// I4 oracle demands the stall bit once suppression exceeds twice this.
const DefaultStallTimeout = 2 * time.Millisecond

// DefaultDevice builds the small-geometry device the shard harnesses use
// (the chaos configuration: light enough that an 8-shard cluster still
// runs in seconds, with tracing on for fingerprints).
func DefaultDevice(env *sim.Env, name string) *villars.Device {
	cfg := villars.DefaultConfig(name)
	cfg.Geometry = nand.Geometry{Channels: 2, WaysPerChan: 2, BlocksPerDie: 32, PagesPerBlock: 32, PageSize: 2048}
	cfg.Timing = nand.Timing{TRead: 5 * time.Microsecond, TProg: 20 * time.Microsecond, TErase: 100 * time.Microsecond, BusRate: 1e9}
	cfg.QueueSize = 4096
	cfg.CMBSize = 64 << 10
	cfg.DestageLatencyBound = 100 * time.Microsecond
	cfg.ShadowUpdatePeriod = 2 * time.Microsecond
	cfg.StallTimeout = DefaultStallTimeout
	cfg.RepairTimeout = time.Millisecond
	d := villars.New(env, cfg, pcie.NewHostMemory(1<<20))
	d.EnableTracing(4096)
	return d
}

// Shard is one partition: a primary device (plus optional replica set)
// with its own WAL and engine, living on its own group member. It is
// both a 2PC coordinator (for transactions homed on it) and a 2PC
// participant (for remote writes other shards send it).
type Shard struct {
	id   int
	c    *Cluster
	env  *sim.Env
	name string // primary device name, "p<i>" — also the fault scope

	members []*sim.Env   // env, then one member per secondary
	stk     *stack.Stack // devices, replica set, log and engine

	// Coordinator state, owned by this shard's env.
	nextSeq  int64
	outcomes map[int64]bool   // gid -> committed? (termination oracle)
	acked    []int64          // cross-shard gids acknowledged committed
	remote   map[int64]*party // participant state per in-flight gid

	// metrics (cluster/shard/<i>/...)
	mRPCOut, mRPCIn         *obs.Counter
	mPrepares, mResolves    *obs.Counter
	mCommits2PC, mAborts2PC *obs.Counter
	mPrepareLat, mCommitLat *obs.Histogram

	// hookBeforeDecision, when set (tests), runs on the coordinator right
	// after all participants voted yes and before the decision record is
	// appended — the classic "coordinator dies between prepare-all and
	// first commit" kill point.
	hookBeforeDecision func()
}

// party is the participant-side state of one distributed transaction.
type party struct {
	tx        *db.Tx
	coord     int
	writes    int  // delivered remote write ops
	preparing bool // a prepare process is in flight (single-flight guard)
	prepared  bool // vote recorded (idempotence for duplicate prepares)
	vote      bool
	waiters   []func(bool) // votes owed once the in-flight prepare lands
}

// ID returns the shard index.
func (s *Shard) ID() int { return s.id }

// Env returns the shard's simulation environment.
func (s *Shard) Env() *sim.Env { return s.env }

// Device returns the shard's primary device.
func (s *Shard) Device() *villars.Device { return s.stk.Primary }

// Secondaries returns the shard's replica devices in index order.
func (s *Shard) Secondaries() []*villars.Device {
	return append([]*villars.Device(nil), s.stk.Devices[1:]...)
}

// Log returns the shard's WAL.
func (s *Shard) Log() *wal.Log { return s.stk.Log }

// Engine returns the shard's database engine.
func (s *Shard) Engine() *db.Engine { return s.stk.Engine }

// AckedGIDs returns the cross-shard transactions this shard, as
// coordinator, acknowledged as committed — in acknowledgement order. The
// I8 oracle checks each against the durable streams.
func (s *Shard) AckedGIDs() []int64 { return append([]int64(nil), s.acked...) }

// Cluster is a set of shards plus the group that runs them.
type Cluster struct {
	cfg    Config
	group  *sim.Group
	shards []*Shard
}

// New validates cfg and places every member of the cluster — the shards'
// members, then each shard's secondaries, shard-major — and nothing else,
// so a harness can attach fault injectors to Envs() before Build
// constructs the devices (at-time power rules arm at device creation).
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: Shards must be >= 1, got %d", cfg.Shards)
	}
	if cfg.Warehouses < cfg.Shards || cfg.Warehouses%cfg.Shards != 0 {
		return nil, fmt.Errorf("shard: Warehouses (%d) must be a positive multiple of Shards (%d)", cfg.Warehouses, cfg.Shards)
	}
	c := &Cluster{cfg: cfg, group: sim.NewGroup(sim.GroupConfig{Workers: cfg.SimWorkers, StartInline: true})}
	for i := 0; i < cfg.Shards; i++ {
		s := &Shard{
			id:       i,
			c:        c,
			name:     fmt.Sprintf("p%d", i),
			env:      stack.Place(c.group, cfg.Seed, fmt.Sprintf("sh%d", i)),
			outcomes: map[int64]bool{},
			remote:   map[int64]*party{},
		}
		c.shards = append(c.shards, s)
	}
	for _, s := range c.shards {
		s.members = stack.PlaceSecondaries(s.env, cfg.Seed, cfg.Secondaries)
	}
	return c, nil
}

// Envs returns every member environment in index order, secondaries
// included. Attach fault injectors here, before Build.
func (c *Cluster) Envs() []*sim.Env { return c.group.Envs() }

// Group returns the group the cluster runs on; never nil.
func (c *Cluster) Group() *sim.Group { return c.group }

// Shards returns the shards in index order.
func (c *Cluster) Shards() []*Shard { return append([]*Shard(nil), c.shards...) }

// Shard returns shard i.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// ShardOf maps a warehouse id to its owning shard.
func (c *Cluster) ShardOf(warehouse int) int {
	return OwnerOf(warehouse, c.cfg.Shards, c.cfg.Warehouses)
}

// Scope is the metrics scope of shard id: its 2PC and RPC series, and
// its replica set under Scope(id) + "/repl".
func Scope(id int) string { return fmt.Sprintf("cluster/shard/%d", id) }

// Build constructs every shard's stack (devices and replica set) on the
// members New placed, and the per-shard metrics. Call after fault
// injectors are attached and before Boot.
func (c *Cluster) Build() {
	for _, s := range c.shards {
		s.stk = stack.Build(s.members, s.stackConfig(c.cfg))
		sc := obs.For(s.env).Scope(Scope(s.id))
		s.mRPCOut = sc.Counter("rpc/out")
		s.mRPCIn = sc.Counter("rpc/in")
		s.mPrepares = sc.Counter("2pc/prepares")
		s.mResolves = sc.Counter("2pc/resolves")
		s.mCommits2PC = sc.Counter("2pc/commits")
		s.mAborts2PC = sc.Counter("2pc/aborts")
		s.mPrepareLat = sc.Histogram("2pc/prepare_ns")
		s.mCommitLat = sc.Histogram("2pc/commit_ns")
	}
}

// stackConfig is shard s's stack: primary "p<i>" and secondaries
// "s<i>.<j>", a row-map engine, the log sink named after the primary.
func (s *Shard) stackConfig(cfg Config) stack.Config {
	sc := stack.Config{
		Scheme: cfg.Scheme,
		Shard:  Scope(s.id),
		Sink:   s.name,
		WAL:    cfg.WAL,
		Device: func(env *sim.Env, i int) *villars.Device {
			if i == 0 {
				return cfg.Device(env, s.name)
			}
			return cfg.Device(env, fmt.Sprintf("s%d.%d", s.id, i-1))
		},
	}
	if cfg.Load != nil {
		sc.Load = func(eng *db.Engine) { cfg.Load(eng, s.id) }
	}
	return sc
}

// Boot brings the cluster up: every shard runs replication setup, WAL
// sink and log, engine, and the initial load on a process of its OWN
// Env, so everything a shard later drives (the logger's latency spans,
// the WAL daemon, the engine) is born on the member whose clock it
// reads. The caller's process only spawns and joins those bring-up
// processes. Legal cross-member access: the caller runs while the group
// is still inline (StartInline), exactly like the chaos harness's boot,
// and Release is only called afterwards.
func (c *Cluster) Boot(p *sim.Proc) error {
	n := len(c.shards)
	errs := make([]error, n)
	booted := 0
	for _, s := range c.shards {
		s := s
		s.env.Go("boot-"+s.name, func(bp *sim.Proc) {
			defer func() { booted++ }()
			errs[s.id] = s.stk.Boot(bp)
		})
	}
	// Inline quanta run members on the coordinator goroutine in
	// env-index order, so polling the shared counter is race-free and
	// deterministic.
	//
	//xssd:conduit inline-phase join: booted is only written by bring-up procs of an inline group
	for booted < n {
		p.Sleep(time.Microsecond)
	}
	for id, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", id, err)
		}
	}
	return nil
}

// Release ends the bring-up phase: members run concurrently from the next
// barrier on. Call from the boot process once every cross-member touch is
// done.
func (c *Cluster) Release() { c.group.Parallelize() }

// RunUntil drives the cluster to absolute virtual time t.
func (c *Cluster) RunUntil(t time.Duration) { c.group.RunUntil(t) }

// Now returns the cluster's virtual time.
func (c *Cluster) Now() time.Duration { return c.group.Now() }

// Events returns total dispatched events across all members.
func (c *Cluster) Events() int64 { return c.group.Events() }

// Snapshot merges every member's metrics registry in index order.
func (c *Cluster) Snapshot() *obs.Snapshot { return obs.SnapshotOf(c.group.Envs()) }

// Close releases every parked process goroutine and the executor pool.
func (c *Cluster) Close() { c.group.Close() }
