// Package villars implements the Villars device, the reference design of
// the X-SSD architecture (paper §4). A Device couples:
//
//   - a conventional side: a full NVMe block SSD (HIC → FTL → scheduler →
//     NAND array), reusing the stock components almost unmodified, and
//   - a fast side: the CMB module (§4.1) exposing a PM-backed append ring
//     through a byte-addressable window, the Destage module (§4.3) moving
//     that ring onto a circular LBA range of the conventional side, and the
//     Transport module (§4.2) mirroring the write stream to peer devices
//     over NTB and collecting shadow counters.
//
// The fast side is controlled through vendor-specific NVMe admin commands
// and a small MMIO register file (layout in internal/core).
package villars

import (
	"errors"
	"fmt"
	"time"

	"xssd/internal/core"
	"xssd/internal/fault"
	"xssd/internal/ftl"
	"xssd/internal/hic"
	"xssd/internal/nand"
	"xssd/internal/nvme"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/pm"
	"xssd/internal/sched"
	"xssd/internal/sim"
)

// ErrFastSideBusy reports a TruncateToCredit on a fast side that still
// has intake or in-flight data: the frontier is not yet authoritative.
// Match with errors.Is.
var ErrFastSideBusy = errors.New("villars: fast side not idle")

// CMBWindowSize is the virtual size of the byte-addressable window: the
// host addresses the fast side by stream offset and the device folds the
// offset onto its physical ring, so the window is made large enough to
// never wrap in practice.
const CMBWindowSize = int64(1) << 40

// Config assembles a Device.
type Config struct {
	// Name labels the device in traces.
	Name string
	// Backing selects the CMB backing memory (pm.SRAMSpec / pm.DRAMSpec).
	Backing pm.Spec
	// CMBSize is the fast-side ring capacity; 0 means the backing size.
	// A negative size is API misuse and New panics on it: no caller in the
	// module sets one, the xssd facade does not expose the field, and
	// CreateVF refuses a virtual function's size below 1 with an error.
	CMBSize int64
	// QueueSize is the CMB intake queue; 0 means core.DefaultQueueSize.
	QueueSize int
	// Geometry shapes the NAND array (channels, dies, blocks, pages).
	Geometry nand.Geometry
	// Timing sets the NAND operation latencies (tPROG, tR, tBERS).
	Timing nand.Timing
	// FTL tunes the flash translation layer.
	FTL ftl.Config
	// Policy is the initial destage scheduling policy.
	Policy sched.Policy
	// DestageLBAs is the length of the destage ring on the conventional
	// side, in logical blocks; 0 means 1/4 of the logical capacity.
	DestageLBAs int64
	// DestageLatencyBound destages a partial page when data has waited
	// this long; 0 means core.DefaultDestageLatencyBound.
	DestageLatencyBound time.Duration
	// ShadowUpdatePeriod is the secondary's counter-report interval;
	// 0 means 0.4 µs (the paper's fastest setting).
	ShadowUpdatePeriod time.Duration
	// StallTimeout flags a replica as stalled when its shadow counter has
	// not moved for this long while data is outstanding; 0 means 10 ms.
	StallTimeout time.Duration
	// RepairTimeout is how long a mirrored chunk may go uncovered by a
	// peer's shadow counter before the transport resends it (recovery
	// from lost or delayed mirror traffic); 0 means 5 ms.
	RepairTimeout time.Duration
	// HostQueues is the number of per-core NVMe SQ/CQ pairs; 0 means one
	// pair.
	HostQueues int
	// CoalesceOps raises a CQ interrupt only after this many completions
	// (<= 1: every completion); a final sub-batch interrupts 8 µs after
	// its first completion.
	CoalesceOps int
}

// The device's fixed shape: the paper's experimental setup (§6).
const (
	// pcieLanes and pcieGen size the host link: the paper's constrained
	// ×4 Gen2 configuration.
	pcieLanes = 4
	pcieGen   = pcie.Gen2
	// linkLatency is the host-device propagation delay.
	linkLatency = 300 * time.Nanosecond
	// supercapBudget is how long the device runs after power loss to
	// drain the fast side (ample).
	supercapBudget = 100 * time.Millisecond
)

// DefaultConfig returns the paper's experimental setup: SRAM-backed CMB,
// Cosmos+-class NAND.
func DefaultConfig(name string) Config {
	return Config{
		Name:     name,
		Backing:  pm.SRAMSpec,
		Geometry: nand.DefaultGeometry,
		Timing:   nand.DefaultTiming,
		FTL:      ftl.DefaultConfig,
		Policy:   sched.Neutral,
	}
}

func (c *Config) fillDefaults() {
	if c.CMBSize == 0 {
		c.CMBSize = c.Backing.Capacity
	}
	if c.QueueSize == 0 {
		c.QueueSize = core.DefaultQueueSize
	}
	if c.Geometry.Channels == 0 {
		c.Geometry = nand.DefaultGeometry
	}
	if c.Timing.TProg == 0 {
		c.Timing = nand.DefaultTiming
	}
	if c.FTL.OverProvision == 0 {
		c.FTL = ftl.DefaultConfig
	}
	if c.DestageLatencyBound == 0 {
		c.DestageLatencyBound = core.DefaultDestageLatencyBound
	}
	if c.ShadowUpdatePeriod == 0 {
		c.ShadowUpdatePeriod = 400 * time.Nanosecond
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 10 * time.Millisecond
	}
	if c.RepairTimeout == 0 {
		c.RepairTimeout = 5 * time.Millisecond
	}
}

// Device is one Villars X-SSD. Every piece of state reachable from a
// Device belongs to the sim.Env it was created on; a simulated process
// must not touch two devices' state unless it runs inside an
// //xssd:conduit (envaffinity enforces this, clearing the way for the
// parallel engine to run each Env on its own thread).
//
//xssd:envroot
type Device struct {
	env *sim.Env
	cfg Config

	// conventional side
	link   *sim.Link
	arr    *nand.Array
	sch    *sched.Scheduler
	ftl    *ftl.FTL
	qset   *nvme.QueueSet
	ctrl   *hic.Controller
	host   *pcie.HostMemory
	driver *nvme.Driver

	// fast side
	bank      *pcie.Region // CMB data window (byte-addressable)
	ctrlRgn   *pcie.Region // control register window
	pmBank    *pm.Bank     // shared CMB backing memory
	fs        *fastSide    // the primary fast side
	transport *transportModule

	// virtual functions (paper §7.2): additional, independent fast sides
	// carved out of the same backing memory.
	vfs       []*VirtualFunction
	vfLBAUsed int64 // next free LBA above the primary destage ring

	tracer    *obs.Tracer
	powerLost bool
}

// fastSide groups one independent CMB region: its intake queue, PM ring,
// credit counter, and destage ring. The device has one primary fast side;
// VirtualFunctions add more (paper §7.2: "an SR-IOV implementation could
// simply segment the CMB across smaller, independent regions").
type fastSide struct {
	name         string
	primary      bool
	queueSize    int
	cmbSize      int64
	latencyBound time.Duration
	cmb          *cmbModule
	destage      *destageModule
}

// New builds a device, wires its modules, and starts their processes.
// host is the host-memory the conventional side DMAs against.
func New(env *sim.Env, cfg Config, host *pcie.HostMemory) *Device {
	cfg.fillDefaults()
	d := &Device{env: env, cfg: cfg, host: host}
	bw := float64(pcieLanes) * pcieGen.LaneBandwidth()
	d.link = env.NewLink("pcie-"+cfg.Name, bw, linkLatency)
	d.arr = nand.New(env, cfg.Geometry, cfg.Timing)
	d.sch = sched.New(env, d.arr, cfg.Policy)
	d.ftl = ftl.New(env, d.arr, d.sch, cfg.FTL)
	d.qset = nvme.NewQueueSet(env, cfg.HostQueues, cfg.CoalesceOps)
	d.ctrl = hic.New(env, d.qset, d.link, host, d.ftl, d)
	d.driver = nvme.NewDriver(env, d.qset)

	if cfg.DestageLBAs == 0 {
		cfg.DestageLBAs = d.ftl.LogicalPages() / 4
		d.cfg.DestageLBAs = cfg.DestageLBAs
	}
	d.pmBank = pm.NewBank(env, cfg.Backing)
	d.fs = &fastSide{
		name:         cfg.Name,
		primary:      true,
		queueSize:    cfg.QueueSize,
		cmbSize:      cfg.CMBSize,
		latencyBound: cfg.DestageLatencyBound,
	}
	d.fs.cmb = newCMBModule(d, d.fs, d.pmBank)
	d.fs.destage = newDestageModule(d, d.fs, 0, cfg.DestageLBAs)
	d.vfLBAUsed = cfg.DestageLBAs
	d.transport = newTransportModule(d)

	d.bank = pcie.NewRegion(env, d.link, d.fs.cmb, CMBWindowSize)
	d.ctrlRgn = pcie.NewRegion(env, d.link, controlTarget{d.fs, d}, core.ControlSize)

	// Always-on telemetry: the conventional-side components register their
	// series under the device name, and the device itself exports its
	// effective credit, PCIe link counters and power state.
	reg := obs.For(env)
	d.sch.Observe(reg.Scope(cfg.Name + "/sched"))
	d.arr.Observe(reg.Scope(cfg.Name + "/nand"))
	d.ftl.Observe(reg.Scope(cfg.Name + "/ftl"))
	dsc := reg.Scope(cfg.Name)
	dsc.GaugeFunc("credit_effective", d.EffectiveCredit)
	dsc.GaugeFunc("status", d.statusRegister)
	dsc.GaugeFunc("pcie/bytes", func() int64 { b, _, _ := d.link.Stats(); return b })
	dsc.GaugeFunc("pcie/transfers", func() int64 { _, _, x := d.link.Stats(); return x })

	// Fault plan: exact-time power-loss rules for this device fire as
	// scheduled events (byte-counted rules fire from the CMB hook). The
	// injector must be attached to env before the device is built.
	fault.For(env).OnTime(fault.DevicePower, cfg.Name, d.InjectPowerLoss)
	return d
}

// VirtualFunction is an independent fast side exported by the same device
// (paper §7.2): its own CMB window, credit counter, and destage ring, so
// several databases (or log-writer threads needing private counters,
// §7.1) can share one X-SSD without sharing a flow-control domain.
type VirtualFunction struct {
	dev     *Device
	fs      *fastSide
	dataRgn *pcie.Region
	ctrlRgn *pcie.Region
}

// CreateVF carves a new virtual fast side out of the device: cmbSize
// bytes of ring over the shared backing, its own intake queue, and
// destageLBAs blocks of destage ring placed after all existing rings.
func (d *Device) CreateVF(name string, cmbSize int64, queueSize int, destageLBAs int64) (*VirtualFunction, error) {
	if cmbSize <= 0 || queueSize <= 0 || destageLBAs <= 0 {
		return nil, fmt.Errorf("villars: VF %q: sizes must be positive", name)
	}
	if d.vfLBAUsed+destageLBAs > d.ftl.LogicalPages() {
		return nil, fmt.Errorf("villars: VF %q: no LBA space for a %d-block destage ring", name, destageLBAs)
	}
	fs := &fastSide{
		name:         d.cfg.Name + "/" + name,
		queueSize:    queueSize,
		cmbSize:      cmbSize,
		latencyBound: d.cfg.DestageLatencyBound,
	}
	fs.cmb = newCMBModule(d, fs, d.pmBank)
	fs.destage = newDestageModule(d, fs, d.vfLBAUsed, destageLBAs)
	d.vfLBAUsed += destageLBAs
	vf := &VirtualFunction{
		dev:     d,
		fs:      fs,
		dataRgn: pcie.NewRegion(d.env, d.link, fs.cmb, CMBWindowSize),
		ctrlRgn: pcie.NewRegion(d.env, d.link, controlTarget{fs, d}, core.ControlSize),
	}
	d.vfs = append(d.vfs, vf)
	return vf, nil
}

// Name returns the VF's qualified name.
func (v *VirtualFunction) Name() string { return v.fs.name }

// DataRegion returns the VF's byte-addressable CMB window.
func (v *VirtualFunction) DataRegion() *pcie.Region { return v.dataRgn }

// ControlRegion returns the VF's register file.
func (v *VirtualFunction) ControlRegion() *pcie.Region { return v.ctrlRgn }

// HostDriver returns the shared NVMe driver of the underlying device.
func (v *VirtualFunction) HostDriver() *nvme.Driver { return v.dev.HostDriver() }

// BlockSize returns the conventional side's logical block size.
func (v *VirtualFunction) BlockSize() int { return v.dev.BlockSize() }

// PowerLost reports the underlying device's power state.
func (v *VirtualFunction) PowerLost() bool { return v.dev.PowerLost() }

// Env returns the simulation environment.
func (d *Device) Env() *sim.Env { return d.env }

// Name returns the configured device name.
func (d *Device) Name() string { return d.cfg.Name }

// Link returns the host↔device PCIe link.
func (d *Device) Link() *sim.Link { return d.link }

// DataRegion returns the byte-addressable CMB window.
func (d *Device) DataRegion() *pcie.Region { return d.bank }

// ControlRegion returns the MMIO register file.
func (d *Device) ControlRegion() *pcie.Region { return d.ctrlRgn }

// HostDriver returns the shared host-side NVMe driver bound to the
// device's queue pairs. All host contexts must use this instance: a queue
// pair has exactly one interrupt consumer. The driver registers no
// per-queue instruments by itself; a caller that reads them calls
// Observe during bring-up.
func (d *Device) HostDriver() *nvme.Driver { return d.driver }

// FTL exposes the flash translation layer (used in tests and recovery
// inspection).
func (d *Device) FTL() *ftl.FTL { return d.ftl }

// Array exposes the NAND array (used for fault injection in tests).
func (d *Device) Array() *nand.Array { return d.arr }

// Scheduler exposes the storage-controller scheduler.
func (d *Device) Scheduler() *sched.Scheduler { return d.sch }

// BlockSize returns the logical block size of the conventional side.
func (d *Device) BlockSize() int { return d.ctrl.BlockSize() }

// CMB returns the primary fast-side module (tests and the facade use its
// counters and signals).
func (d *Device) CMB() *cmbModule { return d.fs.cmb }

// Destage returns the primary fast side's destage module.
func (d *Device) Destage() *destageModule { return d.fs.destage }

// Transport returns the transport module.
func (d *Device) Transport() *transportModule { return d.transport }

// HostMemory returns the host DMA memory the conventional side reads
// commands' payloads from and writes completions' data into.
func (d *Device) HostMemory() *pcie.HostMemory { return d.host }

// ControllerStats returns the host-interface controller's cumulative
// command counts (reads, writes, flushes, admins, errors). The error
// count includes background cache writes the controller dropped after
// acknowledging the command — durability protocols must check its delta
// across a flush.
func (d *Device) ControllerStats() (reads, writes, flushes, admins, errors int64) {
	return d.ctrl.Stats()
}

// AllocLBARange reserves count conventional-side blocks above every
// destage ring (and any earlier reservation) and returns the first LBA.
// The range is the caller's to read and write through the normal NVMe
// path — the paged table store places its page slots here.
func (d *Device) AllocLBARange(count int64) (int64, error) {
	if count <= 0 {
		return 0, fmt.Errorf("villars: LBA range: count %d must be positive", count)
	}
	if d.vfLBAUsed+count > d.ftl.LogicalPages() {
		return 0, fmt.Errorf("villars: LBA range: %d blocks requested, %d free above LBA %d",
			count, d.ftl.LogicalPages()-d.vfLBAUsed, d.vfLBAUsed)
	}
	base := d.vfLBAUsed
	d.vfLBAUsed += count
	return base, nil
}

// controlTarget adapts one fast side's register file to pcie.Target.
type controlTarget struct {
	fs *fastSide
	d  *Device
}

// MemWrite ignores stores: the register file is read-only from the host.
func (c controlTarget) MemWrite(off int64, data []byte) {}

// MemRead serves register loads: the register's little-endian bytes, zero
// past the eighth.
func (c controlTarget) MemRead(off int64, dst []byte) {
	v := c.d.readRegister(c.fs, off)
	clear(dst)
	for i := 0; i < len(dst) && i < 8; i++ {
		dst[i] = byte(v >> (8 * i))
	}
}

// readRegister returns the 64-bit value of the register at off for one
// fast side (the primary's credit is replication-aware; VFs are local). A
// read of the destaged-stream or tail register marks a tail reader for the
// destage module's padding rule.
func (d *Device) readRegister(fs *fastSide, off int64) int64 {
	switch off {
	case core.RegCredit:
		if fs.primary {
			return d.EffectiveCredit()
		}
		return fs.cappedCredit()
	case core.RegLocalCredit:
		return fs.cmb.ring.Frontier()
	case core.RegQueueSize:
		return int64(fs.queueSize)
	case core.RegStatus:
		return d.statusRegister()
	case core.RegDestagedStream:
		fs.destage.tailRead()
		return fs.destage.destagedStream
	case core.RegDestageBaseLBA:
		return fs.destage.baseLBA
	case core.RegDestageLBACount:
		return fs.destage.lbaCount
	case core.RegDestageTailLBA:
		fs.destage.tailRead()
		return fs.destage.tail
	}
	return 0
}

// cappedCredit limits the reported credit so a protocol-abiding host can
// never overwrite undestaged ring data (see Device.EffectiveCredit).
func (fs *fastSide) cappedCredit() int64 {
	local := fs.cmb.ring.Frontier()
	if lim := fs.cmb.ring.Head() + fs.cmbSize - int64(fs.queueSize); local > lim {
		local = lim
	}
	return local
}

// EffectiveCredit is the credit counter value the host sees. It combines
// the local persist frontier with the replication scheme (paper §4.2),
// capped so that a host honouring the flow-control protocol (at most
// QueueSize bytes beyond the last credit read) can never overwrite
// not-yet-destaged ring data: credit may run at most
// capacity−queueSize ahead of the destage head.
func (d *Device) EffectiveCredit() int64 {
	return d.transport.effectiveCredit(d.fs.cappedCredit())
}

func (d *Device) statusRegister() int64 {
	var s int64
	if d.transport.mode != core.Standalone {
		s |= core.StatusTransportUp
	}
	if d.transport.stalled() {
		s |= core.StatusReplicaStalled
	}
	if d.powerLost {
		s |= core.StatusPowerLoss
	}
	if d.transport.ShadowFrozen() {
		s |= core.StatusShadowFrozen
	}
	return s
}

// FastSideIdle reports whether the primary fast side has fully retired
// its intake: nothing queued and nothing in flight on the backing bus.
// Only then does the ring's frontier reflect every byte the device has
// accepted — the precondition for TruncateToCredit.
func (d *Device) FastSideIdle() bool {
	return d.fs.cmb.queueUsed == 0 && d.fs.cmb.persistq.Len() == 0
}

// TruncateToCredit drops every fast-side byte beyond the contiguous
// persisted prefix and returns the resulting frontier — the promotion
// step of a failover (paper §4.2: the shadow counter "tells the
// secondary the persisted prefix it may serve from"). The fast side must
// be idle (FastSideIdle); data sitting beyond a gap is discarded exactly
// as the power-loss crash protocol would.
func (d *Device) TruncateToCredit() (int64, error) {
	if !d.FastSideIdle() {
		return 0, fmt.Errorf("%w: %s", ErrFastSideBusy, d.cfg.Name)
	}
	d.fs.cmb.ring.DiscardGaps()
	return d.fs.cmb.ring.Frontier(), nil
}

// Admin implements hic.AdminHandler: the vendor-specific command set.
func (d *Device) Admin(p *sim.Proc, cmd nvme.Command) nvme.Completion {
	d.tracer.Record(obs.AdminCommand, d.cfg.Name, int64(cmd.Opcode), cmd.CDW)
	switch cmd.Opcode {
	case nvme.OpXSetTransportMode:
		mode := core.TransportMode(cmd.CDW)
		if mode < core.Standalone || mode > core.Secondary {
			return nvme.Completion{Status: nvme.StatusInvalid}
		}
		d.transport.setMode(mode)
		return nvme.Completion{Status: nvme.StatusSuccess}
	case nvme.OpXSetDestagePolicy:
		pol := sched.Policy(cmd.CDW)
		if pol < sched.Neutral || pol > sched.ConventionalPriority {
			return nvme.Completion{Status: nvme.StatusInvalid}
		}
		d.sch.SetPolicy(pol)
		return nvme.Completion{Status: nvme.StatusSuccess}
	case nvme.OpXConfigureRing:
		base := cmd.CDW >> 32
		count := cmd.CDW & 0xFFFFFFFF
		if count <= 0 || base+count > d.ftl.LogicalPages() {
			return nvme.Completion{Status: nvme.StatusInvalid}
		}
		if d.fs.cmb.ring.Live() > 0 || d.fs.destage.destagedStream > 0 {
			// Reconfiguring a live ring would orphan data.
			return nvme.Completion{Status: nvme.StatusError}
		}
		d.fs.destage.baseLBA, d.fs.destage.lbaCount = base, count
		return nvme.Completion{Status: nvme.StatusSuccess}
	case nvme.OpXQueryStatus:
		return nvme.Completion{Status: nvme.StatusSuccess, Value: d.statusRegister()}
	case nvme.OpXAlloc:
		a, err := d.fs.cmb.Alloc(int(cmd.CDW))
		if err != nil {
			return nvme.Completion{Status: nvme.StatusError}
		}
		return nvme.Completion{Status: nvme.StatusSuccess, Value: a.Start}
	case nvme.OpXFree:
		if !d.fs.cmb.FreeByStart(cmd.CDW) {
			return nvme.Completion{Status: nvme.StatusInvalid}
		}
		return nvme.Completion{Status: nvme.StatusSuccess}
	default:
		return nvme.Completion{Status: nvme.StatusInvalid}
	}
}

// EnableTracing attaches an event tracer retaining the last capacity
// events; returns it for inspection. Call before driving traffic.
func (d *Device) EnableTracing(capacity int) *obs.Tracer {
	d.tracer = obs.NewTracer(capacity, func() time.Duration { return d.env.Now() })
	return d.tracer
}

// Tracer returns the attached tracer (nil when tracing is off).
func (d *Device) Tracer() *obs.Tracer { return d.tracer }

// InjectPowerLoss simulates a sudden power interruption (paper §4.1 crash
// protocol): the device stops accepting fast-side writes and, on
// supercapacitor energy, destages the full contiguous prefix of the CMB
// ring. Data sitting beyond a gap is discarded.
func (d *Device) InjectPowerLoss() {
	if d.powerLost {
		return
	}
	d.powerLost = true
	d.tracer.Record(obs.PowerLoss, d.cfg.Name, 0, 0)
	for _, fs := range d.fastSides() {
		fs.cmb.ring.DiscardGaps()
		fs.cmb.kickDrain() // so an idle drain observes the flag
		fs.destage.kick.Broadcast()
	}
	deadline := d.env.Now() + supercapBudget
	d.env.At(deadline, func() {
		// Energy exhausted: whatever remains undrained is lost. With the
		// default budget the rings are long drained by now.
		for _, fs := range d.fastSides() {
			fs.cmb.supercapDead = true
		}
	})
}

// fastSides returns the primary fast side plus every virtual function's.
func (d *Device) fastSides() []*fastSide {
	out := []*fastSide{d.fs}
	for _, vf := range d.vfs {
		out = append(out, vf.fs)
	}
	return out
}

// PowerLost reports whether the device has suffered a power loss.
func (d *Device) PowerLost() bool { return d.powerLost }

// Drained reports whether the crash protocol has finished flushing every
// fast side after a power loss.
func (d *Device) Drained() bool {
	if !d.powerLost {
		return false
	}
	for _, fs := range d.fastSides() {
		if fs.cmb.queueUsed > 0 || fs.cmb.ring.Live() > 0 {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (d *Device) String() string {
	return fmt.Sprintf("villars(%s, %s CMB, %s)", d.cfg.Name, d.cfg.Backing.Class, d.transport.mode)
}
