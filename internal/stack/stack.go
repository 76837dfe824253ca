// Package stack brings up one primary stack the way every harness in
// internal/ runs it — members and fault injectors, a primary with its
// replica set, sink and WAL, the engine (row map, or B+tree pages with
// their checkpoint manager) and the load — so chaos, bench and each shard
// of a shard.Cluster build it in one place. One bring-up order: place
// every member, hook the fault plan on them, then build the devices. New
// does all three for a lone stack; a shard.Cluster places every shard's
// members, its harness hooks the plan, and Build builds each shard. Boot
// runs the rest on the host member while the group is inline. Harnesses
// keep fault plans, windows, timing and metrics.
package stack

import (
	"errors"
	"fmt"
	"time"

	"xssd/internal/btree"
	"xssd/internal/ckpt"
	"xssd/internal/core"
	"xssd/internal/db"
	"xssd/internal/failover"
	"xssd/internal/fault"
	"xssd/internal/obs"
	"xssd/internal/repl"
	"xssd/internal/sim"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// checkpointInterval paces every paged stack's checkpoint manager.
const checkpointInterval = 2 * time.Millisecond

// Paged shapes a paged engine: Slots page slots on the primary's
// conventional side (page ids × 2 shadow slots, one block each) behind a
// buffer pool of Pool pages.
type Paged struct {
	Slots int64
	Pool  int
}

// Config shapes one stack.
type Config struct {
	Seed    int64       // member 0's seed; member idx takes sim.MemberSeed(Seed, idx)
	Workers int         // executors of the group New opens; below 1 is the serial runner
	Plan    *fault.Plan // hooked into New's members before any device exists; nil for none
	// Device builds device i on env: the primary for i = 0, secondary i-1
	// after it. Nil builds none: New then opens a bare group.
	Device      func(env *sim.Env, i int) *villars.Device
	Secondaries int                    // replica devices New places, each on a member of its own
	Scheme      core.ReplicationScheme // set up by Boot when Secondaries > 0
	// Shard is the metrics scope of the cluster shard this stack is, e.g.
	// "cluster/shard/2", and its replica set registers under Shard+"/repl";
	// a lone stack's registers under "repl".
	Shard string
	Sink  string     // the primary's log sink; empty boots no log and no engine
	WAL   wal.Config // the log's batching and retention
	// Failover starts a failover.Manager right after the log, and implies
	// WAL.Retain; the group must stay inline.
	Failover bool
	Paged    *Paged           // nil builds the row-map engine
	Load     func(*db.Engine) // runs at the end of Boot
}

// Validate rejects a stack whose parts are not composed yet: each pair
// would run with one part quietly ignored.
func (c Config) Validate() error {
	uncomposed := func(pair, why string) error {
		return fmt.Errorf("stack: combines %s, which are not composed yet (%s)", pair, why)
	}
	switch {
	case c.Failover && c.Secondaries < 1:
		return errors.New("stack: failover needs at least one secondary")
	case c.Shard != "" && c.Paged != nil:
		return uncomposed("Shards and Paged", "shard.Cluster builds row-map engines")
	case c.Shard != "" && c.Failover:
		return uncomposed("Shards and KillAt", "shard.Cluster has no failover manager")
	case c.Paged != nil && c.Failover:
		return uncomposed("Paged and KillAt", "the page store stays bound to the dead primary")
	}
	return nil
}

// Stack is one primary stack on its group. New and Build fill the
// members, faults, devices and replica set; Boot fills the rest.
type Stack struct {
	*sim.Group
	Host     *sim.Env // member 0 of a lone stack; the shard's member in a cluster
	Faults   *Faults  // nil without a plan
	Primary  *villars.Device
	Devices  []*villars.Device // the primary, then the secondaries
	Repl     *repl.Cluster     // nil without secondaries
	Log      *wal.Log
	Engine   *db.Engine
	Pager    *btree.Pager      // paged only
	Ckpt     *ckpt.Manager     // paged only; the harness starts its Run
	Failover *failover.Manager // Failover only

	cfg  Config
	sink *wal.VillarsSink // the log's sink, for failover
	base int64            // first LBA of the page slots
}

// Place adds a member to g seeded by its index: member 0 takes seed and
// every later one sim.MemberSeed(seed, idx), so (seed, shape) fixes a run.
func Place(g *sim.Group, seed int64, name string) *sim.Env {
	return g.NewEnv(name, sim.MemberSeed(seed, len(g.Envs())))
}

// New validates cfg and opens a lone stack on a group of its own, started
// inline: host and primary on member 0, secondary i on member i+1, the
// plan's injectors on every member, then the devices and the replica set.
// Close it when done.
func New(cfg Config) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := sim.NewGroup(sim.GroupConfig{Workers: cfg.Workers, StartInline: true})
	envs := PlaceSecondaries(Place(g, cfg.Seed, "host"), cfg.Seed, cfg.Secondaries)
	var faults *Faults
	if cfg.Plan != nil {
		faults = AttachFaults(envs, cfg.Plan)
	}
	s := Build(envs, cfg)
	s.Faults = faults
	return s, nil
}

// PlaceSecondaries adds n members for host's secondaries after the members
// its group already has, named after host, and returns host followed by
// them: the members Build takes.
func PlaceSecondaries(host *sim.Env, seed int64, n int) []*sim.Env {
	envs := []*sim.Env{host}
	for i := 0; i < n; i++ {
		envs = append(envs, Place(host.Group(), seed, fmt.Sprintf("%s.s%d", host.Name(), i)))
	}
	return envs
}

// Build builds the devices and the replica set of a stack on members
// already placed: envs[0] is the host and primary, envs[i] secondary i-1.
// New calls it for a lone stack, and a cluster for each shard once the
// harness has hooked its plan on every member. cfg must pass Validate.
func Build(envs []*sim.Env, cfg Config) *Stack {
	s := &Stack{Group: envs[0].Group(), Host: envs[0], cfg: cfg}
	if cfg.Device == nil {
		return s
	}
	for i, env := range envs {
		s.Devices = append(s.Devices, cfg.Device(env, i))
	}
	s.Primary = s.Devices[0]
	if len(s.Devices) > 1 {
		scope := "repl"
		if cfg.Shard != "" {
			scope = cfg.Shard + "/repl"
		}
		s.Repl, _ = repl.NewScoped(s.Host, s.Devices, scope) // fails only on no devices
	}
	return s
}

// Boot brings the stack up on p, a process of the host member, while the
// group is inline (replication setup drives the secondaries' queues
// directly): then the sink, the log and failover manager, the engine and
// the load.
func (s *Stack) Boot(p *sim.Proc) error {
	cfg := s.cfg
	if s.Repl != nil {
		if err := s.Repl.Setup(p, 0, cfg.Scheme); err != nil {
			return fmt.Errorf("replication setup: %w", err)
		}
	}
	if cfg.Sink == "" {
		return nil
	}
	s.sink = wal.NewVillarsSink(p, s.Primary, cfg.Sink)
	wcfg := cfg.WAL
	wcfg.Retain = wcfg.Retain || cfg.Failover
	s.Log = wal.NewLog(s.Host, s.sink, wcfg)
	if cfg.Failover {
		// Right after the log: the watchdog's spawn order relative to the
		// harness's processes is part of the event history.
		var err error
		if s.Failover, err = failover.New(s.Host, s.Repl, s.Log, s.sink); err != nil {
			return err
		}
	}
	if cfg.Paged == nil {
		s.Engine = db.New(s.Host, s.Log)
	} else if err := s.bootPaged(); err != nil {
		return err
	}
	if cfg.Load != nil {
		cfg.Load(s.Engine)
	}
	return nil
}

// bootPaged builds the paged engine. Page slots live above the destage
// rings on the conventional side; DMA staging sits at the top of host
// memory (the WAL path rides the CMB, so nothing else maps that region).
func (s *Stack) bootPaged() error {
	prim, pc := s.Primary, s.cfg.Paged
	var err error
	if s.base, err = prim.AllocLBARange(pc.Slots); err != nil {
		return err
	}
	scratch := int64(len(prim.HostMemory().Bytes())) - btree.DeviceScratchSize(prim.BlockSize())
	reg := obs.For(s.Host)
	s.Pager = btree.NewPager(btree.NewDeviceStore(prim, s.base, pc.Slots, scratch),
		btree.Config{PoolPages: pc.Pool, Scope: reg.Scope(prim.Name() + "/pager")})
	s.Engine = db.NewPaged(s.Host, s.Log, s.Pager)
	s.Ckpt = ckpt.NewManager(s.Engine, s.Log, ckpt.Config{Interval: checkpointInterval, Scope: reg.Scope(prim.Name() + "/ckpt")})
	return nil
}

// BootInline runs Boot on a process of the host member and drives the
// group a microsecond at a time until it returns, for harnesses that build
// the rest of their run outside any process.
func (s *Stack) BootInline() error {
	var err error
	done := false
	s.Host.Go("boot", func(p *sim.Proc) { err, done = s.Boot(p), true })
	for !done {
		s.RunUntil(s.Now() + time.Microsecond)
	}
	return err
}

// Pages returns the post-mortem reader of a paged stack's page slots (nil
// for a row-map stack). It reads straight through the primary's FTL on the
// device's own Env, so it works after a power loss (the dead host
// interface never gets involved), and it is read-only: recovery never
// writes. Use it once the run is over and the group single-threaded.
func (s *Stack) Pages() btree.PageStore {
	if s.cfg.Paged == nil {
		return nil
	}
	return &ftlStore{dev: s.Primary, base: s.base, slots: s.cfg.Paged.Slots}
}

// FlashPrefix is the other post-mortem reader: it reads d's destage ring
// back through its FTL and reassembles the prefix of the log stream d's
// conventional side holds, failing on any gap or malformed page. Like
// Pages it runs on the device's own Env, in virtual time (PostMortem), and
// works after a power loss; d may be any device of a stack, a secondary or
// a promoted one included. Use it once the run is over and the group
// single-threaded.
func FlashPrefix(d *villars.Device) ([]byte, error) {
	base, count := d.Destage().LBARing()
	var got []byte
	var rerr error
	done := PostMortem(d.Env(), "flash-prefix", 50*time.Millisecond, func(p *sim.Proc) {
		for slot := int64(0); slot < d.Destage().TailLBA(); slot++ {
			page, err := d.FTL().Read(p, base+slot%count)
			if err != nil {
				rerr = fmt.Errorf("%s flash prefix: read slot %d: %w", d.Name(), slot, err)
				return
			}
			off, n, ok := villars.DecodePageHeader(page)
			if !ok {
				rerr = fmt.Errorf("%s flash prefix: slot %d is not a destage page", d.Name(), slot)
				return
			}
			if off != int64(len(got)) {
				rerr = fmt.Errorf("%s flash prefix: slot %d at stream offset %d, want %d (gap)", d.Name(), slot, off, len(got))
				return
			}
			got = append(got, page[villars.PageHeaderLen:villars.PageHeaderLen+n]...)
		}
	})
	if !done {
		return nil, fmt.Errorf("%s flash prefix: read did not finish", d.Name())
	}
	return got, rerr
}

// PostMortem runs read as a process on env and drives env alone, a
// microsecond at a time, until read returns or budget of virtual time has
// passed; it reports whether read returned. The post-mortem readers use
// it once a run is over and its group single-threaded, so driving one
// member directly is race-free, and they stop when they are done rather
// than letting the member's background timers fire for the whole budget.
func PostMortem(env *sim.Env, name string, budget time.Duration, read func(p *sim.Proc)) bool {
	done := false
	env.Go(name, func(p *sim.Proc) { read(p); done = true })
	for end := env.Now() + budget; !done && env.Now() < end; {
		env.RunUntil(env.Now() + time.Microsecond)
	}
	return done
}

// Close releases a lone stack's group and unhooks its faults.
func (s *Stack) Close() {
	s.Group.Close()
	if s.Faults != nil {
		s.Faults.Detach()
	}
}

// Faults is a fault plan hooked into a set of members: one injector per
// member in member order, each seeded from its own member's rng.
type Faults struct {
	Injectors []*fault.Injector
	envs      []*sim.Env
}

// AttachFaults hooks plan into every env. Call it before any device is
// built on them, so at-time power rules arm; Detach when done.
func AttachFaults(envs []*sim.Env, plan *fault.Plan) *Faults {
	f := &Faults{envs: envs}
	for _, e := range envs {
		f.Injectors = append(f.Injectors, fault.New(e, plan))
		fault.Attach(e, f.Injectors[len(f.Injectors)-1])
	}
	return f
}

// Firings sums the fired rules across the members.
func (f *Faults) Firings() (n int) {
	for _, inj := range f.Injectors {
		n += len(inj.Firings())
	}
	return n
}

// Detach unhooks the injectors.
func (f *Faults) Detach() {
	for _, e := range f.envs {
		fault.Detach(e)
	}
}

// ftlStore is the btree.PageStore behind Stack.Pages.
type ftlStore struct {
	dev         *villars.Device
	base, slots int64
}

func (s *ftlStore) PageSize() int { return s.dev.BlockSize() }

func (s *ftlStore) Read(p *sim.Proc, slot int64, buf []byte) error {
	if slot < 0 || slot >= s.slots {
		return fmt.Errorf("%w: slot %d out of range %d", btree.ErrStore, slot, s.slots)
	}
	page, err := s.dev.FTL().Read(p, s.base+slot)
	if err != nil {
		return fmt.Errorf("%w: ftl read slot %d (lba %d): %w", btree.ErrStore, slot, s.base+slot, err)
	}
	copy(buf, page)
	return nil
}

func (s *ftlStore) WriteBatch(*sim.Proc, []int64, [][]byte) error {
	return fmt.Errorf("%w: post-mortem store is read-only", btree.ErrStore)
}

func (s *ftlStore) Sync(*sim.Proc) error { return nil }
