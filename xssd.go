// Package xssd is the public API of this repository: a simulated
// implementation of the X-SSD storage architecture and its Villars
// reference device, from the SIGMOD 2022 paper "X-SSD: A Storage System
// with Native Support for Database Logging and Replication".
//
// An X-SSD couples a conventional NVMe flash SSD with a persistent-memory
// "fast side" reachable through the NVMe Controller Memory Buffer. The
// fast side is an append-only ring with three data-propagation services:
// in-order destaging to flash, mirroring to peer devices over NTB, and a
// credit counter for flow control and durability tracking. Databases use
// it through drop-in replacements for pwrite/fsync/pread.
//
// Everything runs inside a deterministic discrete-event simulation
// (virtual time); see DESIGN.md for the substitution map from the paper's
// hardware to the simulated components.
//
// A minimal session:
//
//	sys := xssd.NewSystem(1)
//	dev, err := sys.NewDevice(xssd.DeviceOptions{Name: "log0"})
//	if err != nil { ... }
//	sys.Run(func(p *xssd.Proc) {
//	    log := dev.OpenLog(p)
//	    log.Pwrite(p, []byte("commit record"))
//	    log.Fsync(p)
//	})
package xssd

import (
	"errors"
	"fmt"
	"io"
	"time"

	"xssd/internal/core"
	"xssd/internal/nand"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/pm"
	"xssd/internal/repl"
	"xssd/internal/sched"
	"xssd/internal/sim"
	"xssd/internal/villars"
	"xssd/internal/xapi"
)

// Proc is a simulated process handle; all blocking API calls take one.
type Proc = sim.Proc

// Backing selects the fast side's persistent-memory class.
type Backing int

// Fast-side backing memories (paper §4.1 / §6).
const (
	// SRAM: small and fastest (FPGA BlockRAM class, 128 KB @ 4 GB/s).
	SRAM Backing = iota
	// DRAM: large, bandwidth shared with the device's data buffer
	// (DDR3 class, 128 MB @ 2 GB/s).
	DRAM
)

// DestagePolicy selects the storage-controller scheduling mode (§4.3).
type DestagePolicy = sched.Policy

// Destage scheduling policies.
const (
	Neutral              = sched.Neutral
	DestagePriority      = sched.DestagePriority
	ConventionalPriority = sched.ConventionalPriority
)

// ReplicationScheme selects how the credit counter combines replica
// progress (§4.2).
type ReplicationScheme = core.ReplicationScheme

// Replication schemes.
const (
	Eager = core.Eager
	Lazy  = core.Lazy
	Chain = core.Chain
)

// System is a simulation universe: a virtual clock plus any number of
// hosts and devices. All devices in one System can be clustered. It runs
// on a lone-member sim.Group, which is byte-identical to a bare sim.Env and
// gives the NTB bridges between its devices the settled horizon that lets
// them reuse their chunk slots.
type System struct {
	group   *sim.Group
	env     *sim.Env
	hostMem *pcie.HostMemory
	devices []*Device
	scratch int64
}

// NewSystem creates an empty system with a deterministic seed.
func NewSystem(seed int64) *System {
	g := sim.NewGroup(sim.GroupConfig{})
	return &System{
		group:   g,
		env:     g.NewEnv("host", seed),
		hostMem: pcie.NewHostMemory(16 << 20),
	}
}

// Env exposes the underlying simulation environment for advanced use
// (custom processes, events, metrics). Drive time through Run and RunFor,
// not the Env's own run methods: the Env is a member of the System's group.
func (s *System) Env() *sim.Env { return s.env }

// Now returns the current virtual time.
func (s *System) Now() time.Duration { return s.env.Now() }

// Go starts fn as a simulated process.
func (s *System) Go(name string, fn func(p *Proc)) { s.env.Go(name, fn) }

// Run starts fn as a process and drives the simulation until fn returns
// (device background processes keep running and do not hold Run open). It
// returns an error if fn can never return: it is still blocked and no
// event is pending anywhere in the System to wake it.
func (s *System) Run(fn func(p *Proc)) error {
	done := false
	s.env.Go("main", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	for !done {
		if s.group.Idle() {
			return fmt.Errorf("xssd: Run stalled at %v: fn is blocked and no event is pending", s.Now())
		}
		s.RunFor(time.Millisecond)
	}
	return nil
}

// RunFor drives the simulation for a span of virtual time.
func (s *System) RunFor(d time.Duration) { s.group.RunUntil(s.group.Now() + d) }

// DeviceOptions configure a new Villars device. Zero values select the
// paper's defaults.
type DeviceOptions struct {
	Name    string
	Backing Backing
	// QueueSize is the CMB intake queue (default 32 KB, §6.3's best).
	QueueSize int
	// Policy is the initial destage scheduling policy.
	Policy DestagePolicy
	// Geometry overrides the NAND array shape (default: 8×8 dies of
	// 16 KB pages); it may hold at most nand.MaxPages pages.
	Geometry *nand.Geometry
	// ShadowUpdatePeriod is the replica counter-report interval
	// (default 0.4 µs).
	ShadowUpdatePeriod time.Duration
	// Queues configures the multi-queue NVMe host interface and registers
	// its per-queue series in the metrics snapshot. nil keeps the classic
	// single queue pair with interrupt-per-completion and no per-queue
	// series.
	Queues *QueueOptions
}

// QueueOptions shape the device's NVMe host interface: how many per-core
// SQ/CQ pairs it exposes and how the completion side coalesces interrupts
// (fire after CoalesceOps completions, or 8 µs after the first pending
// one, whichever comes first). Zero fields select defaults: 1 pair, no
// coalescing. The driver bounds no queue's async commands in flight; a
// caller keeps its own window.
type QueueOptions struct {
	// Pairs is the number of SQ/CQ pairs (per-core in a real deployment).
	Pairs int
	// CoalesceOps raises a completion interrupt only every N completions
	// (<= 1 means every completion).
	CoalesceOps int
}

// validate rejects queue shapes the model cannot honour, wrapping
// ErrBadOptions like the DeviceOptions checks.
func (q QueueOptions) validate() error {
	if q.Pairs < 0 || q.Pairs > 256 {
		return fmt.Errorf("%w: Queues.Pairs %d out of range [0,256]", ErrBadOptions, q.Pairs)
	}
	if q.CoalesceOps < 0 || q.CoalesceOps > 4096 {
		return fmt.Errorf("%w: Queues.CoalesceOps %d out of range [0,4096]", ErrBadOptions, q.CoalesceOps)
	}
	return nil
}

// ErrBadOptions reports rejected DeviceOptions. Concrete failures wrap it
// with the offending field, so callers match with errors.Is.
var ErrBadOptions = errors.New("xssd: invalid device options")

// validate rejects option values the device model cannot honour. The
// checks are deliberate API contract, not defensive programming: a
// mis-sized queue or an empty geometry would otherwise surface much later
// as a confusing simulation artifact.
func (opts DeviceOptions) validate() error {
	if opts.Name == "" {
		return fmt.Errorf("%w: Name must be non-empty (it prefixes the device's metric names)", ErrBadOptions)
	}
	if opts.QueueSize < 0 {
		return fmt.Errorf("%w: QueueSize %d is negative", ErrBadOptions, opts.QueueSize)
	}
	if opts.QueueSize%2 != 0 {
		// The intake queue is split into two ping-pong halves (§4.1).
		return fmt.Errorf("%w: QueueSize %d is odd; the intake queue is managed as two halves", ErrBadOptions, opts.QueueSize)
	}
	if g := opts.Geometry; g != nil {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("%w: Geometry %+v: %w", ErrBadOptions, *g, err)
		}
	}
	if opts.ShadowUpdatePeriod < 0 {
		return fmt.Errorf("%w: ShadowUpdatePeriod %v is negative", ErrBadOptions, opts.ShadowUpdatePeriod)
	}
	if opts.Queues != nil {
		if err := opts.Queues.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Device is one simulated Villars X-SSD attached to the system's host.
type Device struct {
	sys *System
	dev *villars.Device
}

// NewDevice validates opts, then creates and attaches a device. Rejected
// options (negative or odd QueueSize, a Geometry with a zero dimension or
// more than nand.MaxPages pages, an empty Name) return an error wrapping
// ErrBadOptions.
func (s *System) NewDevice(opts DeviceOptions) (*Device, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	cfg := villars.DefaultConfig(opts.Name)
	if opts.Backing == DRAM {
		cfg.Backing = pm.DRAMSpec
	} else {
		cfg.Backing = pm.SRAMSpec
	}
	if opts.QueueSize > 0 {
		cfg.QueueSize = opts.QueueSize
	}
	cfg.Policy = opts.Policy
	if opts.Geometry != nil {
		cfg.Geometry = *opts.Geometry
	} else {
		cfg.Geometry = nand.Geometry{Channels: 8, WaysPerChan: 8, BlocksPerDie: 64, PagesPerBlock: 64, PageSize: 16 << 10}
	}
	if opts.ShadowUpdatePeriod > 0 {
		cfg.ShadowUpdatePeriod = opts.ShadowUpdatePeriod
	}
	if q := opts.Queues; q != nil {
		cfg.HostQueues = q.Pairs
		cfg.CoalesceOps = q.CoalesceOps
	}
	d := &Device{sys: s, dev: villars.New(s.env, cfg, s.hostMem)}
	if opts.Queues != nil {
		d.dev.HostDriver().Observe(obs.For(s.env).Scope(opts.Name + "/nvme"))
	}
	s.devices = append(s.devices, d)
	return d, nil
}

// MustDevice is NewDevice for tests and examples with known-good options;
// it panics on a validation error. That panic is API misuse, the Must-
// helper convention (regexp.MustCompile): a caller whose options come
// from outside the program calls NewDevice and handles the error.
func (s *System) MustDevice(opts DeviceOptions) *Device {
	d, err := s.NewDevice(opts)
	if err != nil {
		panic(err)
	}
	return d
}

// Raw exposes the underlying device model for fault injection only
// (power-loss scenarios, fault plans, chaos tests). For statistics use
// Stats or System.MetricsSnapshot — telemetry read through Raw is
// unsupported and may move without notice.
func (d *Device) Raw() *villars.Device { return d.dev }

// Stats returns the device's typed telemetry snapshot.
func (d *Device) Stats() DeviceStats { return d.dev.Stats() }

// Name returns the device name.
func (d *Device) Name() string { return d.dev.Name() }

// InjectPowerLoss simulates a sudden power interruption; the device
// drains its fast side on supercapacitor energy (crash protocol, §4.1).
func (d *Device) InjectPowerLoss() { d.dev.InjectPowerLoss() }

// Drained reports whether the post-power-loss drain has finished.
func (d *Device) Drained() bool { return d.dev.Drained() }

// VF is a virtual function: an independent fast side on a shared device
// (paper §7.2). Each VF has its own ring, credit counter, and destage
// range — one device can serve several databases, or give each log-writer
// thread a private flow-control domain (§7.1).
type VF struct {
	sys *System
	vf  *villars.VirtualFunction
}

// NewVF carves a virtual fast side out of the device.
func (d *Device) NewVF(name string, cmbSize int64, queueSize int, destageLBAs int64) (*VF, error) {
	vf, err := d.dev.CreateVF(name, cmbSize, queueSize, destageLBAs)
	if err != nil {
		return nil, err
	}
	return &VF{sys: d.sys, vf: vf}, nil
}

// Name returns the VF's qualified name.
func (v *VF) Name() string { return v.vf.Name() }

// Stats returns the VF's typed telemetry snapshot.
func (v *VF) Stats() VFStats { return v.vf.Stats() }

// OpenLog maps the VF's fast side for this process. Equivalent to
// System.OpenLog(p, v).
func (v *VF) OpenLog(p *Proc) *Log { return v.sys.OpenLog(p, v) }

func (v *VF) endpoint() xapi.Endpoint { return v.vf }
func (v *VF) system() *System         { return v.sys }

// EnableTracing attaches an event tracer to the device, retaining the
// last capacity events.
func (d *Device) EnableTracing(capacity int) *obs.Tracer {
	return d.dev.EnableTracing(capacity)
}

// Log is the drop-in logging handle (paper §5.1): Pwrite/Fsync/Pread plus
// the §5.2 Alloc/Free advanced API. One Log models one mapped writer
// context (a core); open one per simulated worker.
type Log struct {
	l *xapi.Logger
}

// LogTarget is anything a Log can be opened on: a whole Device or one of
// its virtual functions. Both expose a fast side with its own credit
// counter and destage range; the xapi layer treats them identically.
type LogTarget interface {
	Name() string
	// endpoint and system keep the interface closed: only Device and VF
	// can satisfy it.
	endpoint() xapi.Endpoint
	system() *System
}

// logScratchSize is the host scratch reserved per opened Log: XPread DMAs
// destage-ring pages into it, so it must hold at least one flash page
// (16 KB default) — 64 KB leaves headroom for custom geometries.
const logScratchSize = 64 << 10

// ReserveScratch reserves size bytes of host scratch memory and returns
// the region's base offset. The allocator is a simple bump pointer over
// the System's host memory: regions are never freed or reused, offsets
// are deterministic (they depend only on the reservation order), and
// offset 0 is never handed out so applications can use low host memory
// for their own buffers without colliding with scratch DMA.
func (s *System) ReserveScratch(size int64) int64 {
	if s.scratch == 0 {
		s.scratch = logScratchSize // keep low host memory for the application
	}
	base := s.scratch
	s.scratch += size
	return base
}

// OpenLog maps t's fast side for the calling process, reserving scratch
// host memory for its tail reads.
func (s *System) OpenLog(p *Proc, t LogTarget) *Log {
	return &Log{l: xapi.Open(p, t.endpoint(), xapi.Options{
		HostMem: s.hostMem,
		Scratch: s.ReserveScratch(logScratchSize),
	})}
}

// OpenLog maps the device's fast side for this process. Equivalent to
// System.OpenLog(p, d).
func (d *Device) OpenLog(p *Proc) *Log { return d.sys.OpenLog(p, d) }

func (d *Device) endpoint() xapi.Endpoint { return d.dev }
func (d *Device) system() *System         { return d.sys }

// Pwrite appends buf to the log (x_pwrite): the copy is paced by the
// device's credit counter and returns once the data is on the wire.
// The returned offset is the byte position in the log stream.
func (g *Log) Pwrite(p *Proc, buf []byte) int64 { return g.l.XPwrite(p, buf) }

// Fsync blocks until everything written through this handle is durable
// under the device's replication scheme (x_fsync).
func (g *Log) Fsync(p *Proc) error { return g.l.XFsync(p) }

// Pread fills buf with the next adjacent bytes of the destaged log tail
// (x_pread's tail-read semantics), blocking until enough data reaches the
// conventional side. Returns the stream offset of buf[0].
func (g *Log) Pread(p *Proc, buf []byte) (int64, error) { return g.l.XPread(p, buf) }

// Alloc reserves a fast-side area for random-order writes (x_alloc).
func (g *Log) Alloc(p *Proc, size int) (int64, error) { return g.l.XAlloc(p, size) }

// WriteAt stores into an allocated area at the given stream offset. A
// write reaching outside the device's CMB window stores nothing and
// returns an error.
func (g *Log) WriteAt(p *Proc, off int64, data []byte) error { return g.l.XWriteAt(p, off, data) }

// Free releases an allocated area, making it destage-eligible (x_free).
func (g *Log) Free(p *Proc, start int64) error { return g.l.XFree(p, start) }

// Written returns total bytes issued through this handle.
func (g *Log) Written() int64 { return g.l.Written() }

// SyncToken is an async durability handle: everything the log issued up
// to the token is durable once Poll reports true (or Wait returns).
// Tokens are totally ordered; waiting on a later token covers every
// earlier one.
type SyncToken = xapi.Token

// Submit appends buf like Pwrite but hands back a SyncToken instead of
// implying a later Fsync — the async half of the API. The copy itself is
// still credit-paced; only the durability wait is deferred, so a worker
// can keep many submissions in flight and Poll (or Wait) when it needs
// the acknowledgement.
func (g *Log) Submit(p *Proc, buf []byte) SyncToken { return g.l.XSubmit(p, buf) }

// SyncToken returns a token covering everything issued so far through
// this handle — "an Fsync would wait for exactly this".
func (g *Log) SyncToken() SyncToken { return g.l.XToken() }

// Poll reports whether tok is durable, spending at most one credit
// register read (one PCIe round trip). It never blocks.
func (g *Log) Poll(p *Proc, tok SyncToken) bool { return g.l.XPoll(p, tok) }

// Wait blocks until tok is durable — Fsync targeted at a token.
func (g *Log) Wait(p *Proc, tok SyncToken) error { return g.l.XWait(p, tok) }

// Cluster is a replication group of devices (§4.2): one primary mirrors
// its fast-side stream to the secondaries over NTB.
type Cluster struct {
	c *repl.Cluster
}

// NewCluster wires the given devices with a full NTB mesh.
func (s *System) NewCluster(devices ...*Device) (*Cluster, error) {
	raw := make([]*villars.Device, len(devices))
	for i, d := range devices {
		raw[i] = d.dev
	}
	c, err := repl.New(s.env, raw)
	if err != nil {
		return nil, err
	}
	return &Cluster{c: c}, nil
}

// Setup elects a primary and replication scheme; the rest become
// secondaries. Eager and Lazy wire a star: the primary mirrors to every
// secondary. Chain wires a chain (§4.2): the primary heads it, the other
// members follow in the order NewCluster was given them, and Fsync returns
// once the tail has persisted the bytes. A chain needs two members.
func (c *Cluster) Setup(p *Proc, primary int, scheme ReplicationScheme) error {
	return c.c.Setup(p, primary, scheme)
}

// Promote fails over to another member (§7.1). A star is rebuilt around
// it; on a chain the member must be a link, keeps the links below it, and
// the links above it are cut off.
func (c *Cluster) Promote(p *Proc, newPrimary int) error {
	return c.c.Promote(p, newPrimary)
}

// Lag returns each of the primary's peers' shadow-counter lag in bytes:
// one entry per secondary on a star, and one entry, the successor's, on a
// chain.
func (c *Cluster) Lag() []int64 { return c.c.Lag() }

// PrimaryName returns the current primary's device name.
func (c *Cluster) PrimaryName() string {
	if d := c.c.Primary(); d != nil {
		return d.Name()
	}
	return ""
}

// Stats returns the cluster's typed telemetry snapshot.
func (c *Cluster) Stats() ClusterStats { return c.c.Stats() }

// Typed stats snapshots (see the Stats methods on Device, VF, and
// Cluster). These are plain value structs assembled on demand; reading
// them never perturbs the simulation.
type (
	DeviceStats  = villars.DeviceStats
	VFStats      = villars.VFStats
	CMBStats     = villars.CMBStats
	DestageStats = villars.DestageStats
	ClusterStats = repl.ClusterStats
)

// MetricsSnapshot captures every metric registered in this system's
// simulation environment — counters, gauges, and histograms from all
// devices, VFs, bridges, WAL pipelines, and loggers — with names sorted.
// The snapshot is deterministic: the same seed and workload produce a
// byte-identical Encode() across runs (the repository's reproducibility
// contract, see DESIGN.md §7).
func (s *System) MetricsSnapshot() *obs.Snapshot {
	return obs.For(s.env).Snapshot()
}

// Metrics output formats accepted by WriteMetrics.
const (
	// MetricsJSON is the canonical machine-readable encoding (one JSON
	// object, trailing newline); byte-identical across same-seed runs.
	MetricsJSON = "json"
	// MetricsText is a line-oriented human-readable dump.
	MetricsText = "text"
)

// WriteMetrics writes a metrics snapshot of the whole system to w in the
// given format (MetricsJSON or MetricsText).
func (s *System) WriteMetrics(w io.Writer, format string) error {
	snap := s.MetricsSnapshot()
	switch format {
	case MetricsJSON:
		return snap.WriteJSON(w)
	case MetricsText:
		return snap.WriteText(w)
	default:
		return fmt.Errorf("xssd: unknown metrics format %q (want %q or %q)", format, MetricsJSON, MetricsText)
	}
}
