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
// its own member. The only cross-shard channel is the RPC conduit in
// rpc.go, built on Env.PostTo, so runs are byte-identical for every
// worker count — and SimWorkers == 0 runs the identical code with every
// shard on member 0 (PostTo degrades to a local timer), which is the
// single-scheduler baseline.
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
	"xssd/internal/repl"
	"xssd/internal/sim"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// ErrUnavailable reports a cross-shard operation that could not reach its
// peer (dropped or timed-out RPC, or a peer whose log died). It is
// retryable in principle but, unlike db.ErrConflict, retrying immediately
// is usually pointless. Match with errors.Is.
var ErrUnavailable = errors.New("shard: peer unavailable")

// Config shapes a shard cluster. The zero value is invalid: Shards and
// Warehouses must be set.
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
	// SimWorkers places the devices on the cluster's sim.Group: 0 puts
	// every shard and secondary on member 0; n >= 1 gives each shard (and
	// each secondary) a member of its own and the group n quantum
	// executors. All n >= 1 runs of one config are byte-identical to each
	// other.
	SimWorkers int
	// Seed seeds shard 0's Env; further members derive theirs with a
	// splitmix64 finalizer, so (Seed, shape) fixes the whole run.
	Seed int64
	// WAL configures every shard's log. A zero value uses small
	// chaos-style batching (4 KiB / 500 µs) rather than wal.DefaultConfig,
	// which is sized for full-scale figure runs.
	WAL wal.Config
	// Device builds one device; nil means DefaultDevice. Harnesses
	// override it to apply their own geometry or tracing setup.
	Device func(env *sim.Env, name string) *villars.Device
	// WrapSink, when non-nil, wraps shard i's WAL sink (oracles record
	// the exact byte stream a shard's host side handed down).
	WrapSink func(shardID int, inner wal.Sink) wal.Sink
	// Load populates shard i's engine with its partition of the initial
	// rows; nil leaves engines empty. It runs during Boot, before any
	// terminal starts.
	Load func(eng *db.Engine, shardID int)
}

func (c Config) withDefaults() Config {
	if c.WAL.GroupBytes == 0 && c.WAL.GroupTimeout == 0 {
		c.WAL.GroupBytes = 4 << 10
		c.WAL.GroupTimeout = 500 * time.Microsecond
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
	cfg.StallTimeout = 2 * time.Millisecond
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

	dev  *villars.Device
	secs []*villars.Device
	sink wal.Sink
	lg   *wal.Log
	eng  *db.Engine

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
func (s *Shard) Device() *villars.Device { return s.dev }

// Secondaries returns the shard's replica devices in index order.
func (s *Shard) Secondaries() []*villars.Device { return append([]*villars.Device(nil), s.secs...) }

// Log returns the shard's WAL.
func (s *Shard) Log() *wal.Log { return s.lg }

// Engine returns the shard's database engine.
func (s *Shard) Engine() *db.Engine { return s.eng }

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

// New validates cfg and creates the shards' simulation environments — and
// nothing else, so a harness can attach fault injectors to Envs() before
// Build constructs the devices (at-time power rules arm at device creation).
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
			env:      c.place(fmt.Sprintf("sh%d", i)),
			outcomes: map[int64]bool{},
			remote:   map[int64]*party{},
		}
		c.shards = append(c.shards, s)
	}
	return c, nil
}

// place returns the Env the next device goes on: member 0 for every device
// at SimWorkers == 0, a new member otherwise.
func (c *Cluster) place(name string) *sim.Env {
	envs := c.group.Envs()
	if len(envs) > 0 && c.cfg.SimWorkers == 0 {
		return envs[0]
	}
	return c.group.NewEnv(name, sim.MemberSeed(c.cfg.Seed, len(envs)))
}

// Envs returns the member environments in index order (one at
// SimWorkers == 0). Attach fault injectors here, before Build.
func (c *Cluster) Envs() []*sim.Env { return c.group.Envs() }

// Group returns the group the cluster runs on; never nil.
func (c *Cluster) Group() *sim.Group { return c.group }

// Shards returns the shards in index order.
func (c *Cluster) Shards() []*Shard { return append([]*Shard(nil), c.shards...) }

// Shard returns shard i.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Config returns the cluster's (defaulted) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// ShardOf maps a warehouse id to its owning shard.
func (c *Cluster) ShardOf(warehouse int) int {
	return OwnerOf(warehouse, c.cfg.Shards, c.cfg.Warehouses)
}

// Build constructs every shard's devices (primaries first, then each
// shard's secondaries on their own members) and the per-shard metrics.
// Call after fault injectors are attached and before Boot.
func (c *Cluster) Build() {
	for _, s := range c.shards {
		s.dev = c.cfg.Device(s.env, s.name)
	}
	for _, s := range c.shards {
		for j := 0; j < c.cfg.Secondaries; j++ {
			env := c.place(fmt.Sprintf("sh%d.s%d", s.id, j))
			s.secs = append(s.secs, c.cfg.Device(env, fmt.Sprintf("s%d.%d", s.id, j)))
		}
		sc := obs.For(s.env).Scope(fmt.Sprintf("cluster/shard/%d", s.id))
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
			errs[s.id] = s.bringUp(bp, c.cfg)
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

// bringUp is one shard's boot sequence, run on the shard's own Env.
func (s *Shard) bringUp(p *sim.Proc, cfg Config) error {
	if len(s.secs) > 0 {
		devices := append([]*villars.Device{s.dev}, s.secs...)
		rc, err := repl.NewScoped(s.env, devices, fmt.Sprintf("cluster/shard/%d/repl", s.id))
		if err != nil {
			return err
		}
		if err := rc.Setup(p, 0, cfg.Scheme); err != nil {
			return fmt.Errorf("replication setup: %w", err)
		}
	}
	s.sink = wal.NewVillarsSink(p, s.dev, s.name)
	if cfg.WrapSink != nil {
		s.sink = cfg.WrapSink(s.id, s.sink)
	}
	s.lg = wal.NewLog(s.env, s.sink, cfg.WAL)
	s.eng = db.New(s.env, s.lg)
	if cfg.Load != nil {
		cfg.Load(s.eng, s.id)
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
