// Package pm models the persistent-memory classes the paper evaluates as
// CMB backing (§4.1, §6): FPGA BlockRAM (SRAM), the device's DDR3 data
// buffer (DRAM, bandwidth shared with regular buffering activity), and
// host-side battery-backed DRAM (NVDIMM) for the paper's "Memory" baseline.
//
// A Bank is a capacity plus a bus: writes and reads occupy the bus for
// their serialization time and add a fixed access latency. Persistence is a
// property of the class (battery/supercapacitor backing), which the crash
// model in internal/villars consults.
package pm

import (
	"time"

	"xssd/internal/sim"
)

// Class identifies a memory technology.
type Class int

// Memory classes from the paper's evaluation.
const (
	SRAM   Class = iota // FPGA BlockRAM: small, fastest
	DRAM                // device DDR3: large, shared with the data buffer
	NVDIMM              // host battery-backed DIMM (the "Memory" baseline)
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case SRAM:
		return "SRAM"
	case DRAM:
		return "DRAM"
	case NVDIMM:
		return "NVDIMM"
	}
	return "unknown"
}

// Spec describes a memory bank configuration.
type Spec struct {
	Class      Class
	Capacity   int64         // bytes
	Bandwidth  float64       // bytes/second of the access bus
	Latency    time.Duration // fixed per-access latency
	Persistent bool          // survives power loss (battery/supercap)
	SharedFrac float64       // fraction of bus consumed by background traffic
}

// Paper §6 presets.
var (
	// SRAMSpec: 128 KB of BlockRAM behind a 128-bit @ 250 MHz bus = 4 GB/s.
	SRAMSpec = Spec{Class: SRAM, Capacity: 128 << 10, Bandwidth: 4e9, Latency: 50 * time.Nanosecond, Persistent: true}
	// DRAMSpec: 128 MB of DDR3 behind a 64-bit @ 250 MHz bus = 2 GB/s,
	// shared with the device's regular data-buffering activity.
	DRAMSpec = Spec{Class: DRAM, Capacity: 128 << 20, Bandwidth: 2e9, Latency: 120 * time.Nanosecond, Persistent: true, SharedFrac: 0.5}
	// NVDIMMSpec: host-side battery-backed DIMM used by the Memory
	// baseline; reachable by plain stores, no PCIe hop.
	NVDIMMSpec = Spec{Class: NVDIMM, Capacity: 8 << 30, Bandwidth: 6e9, Latency: 150 * time.Nanosecond, Persistent: true}
)

// Bank is an instantiated memory with its access bus.
type Bank struct {
	env  *sim.Env
	spec Spec
	bus  *sim.Link

	bgPeriod time.Duration // background burst interval (SharedFrac > 0)
	bgNext   func()        // backgroundStep, bound once
}

// NewBank instantiates spec in env. If the spec declares a SharedFrac > 0,
// a background timer chain (a scheduler callback that re-arms itself, not a
// process) keeps that fraction of the bus busy, modelling the data-buffer
// traffic the paper's DRAM CMB shares its controller with.
func NewBank(env *sim.Env, spec Spec) *Bank {
	b := &Bank{env: env, spec: spec, bus: env.NewLink("pm-"+spec.Class.String(), spec.Bandwidth, spec.Latency)}
	if spec.SharedFrac > 0 {
		// Periodically claim bursts sized so that the long-run bus occupancy
		// matches the fraction: a burst of B bytes every B/(frac*bandwidth)
		// seconds.
		b.bgPeriod = time.Duration(float64(bgBurst) / (spec.SharedFrac * spec.Bandwidth) * 1e9)
		b.bgNext = b.backgroundStep
		env.After(0, b.bgNext)
	}
	return b
}

// bgBurst is the size of one background claim on a shared bus.
const bgBurst = 4096

// backgroundStep claims one burst and re-arms itself a period later.
//
//xssd:hotpath
func (b *Bank) backgroundStep() {
	b.bus.Send(bgBurst, nil)
	b.env.After(b.bgPeriod, b.bgNext)
}

// Spec returns the bank's configuration.
func (b *Bank) Spec() Spec { return b.spec }

// Capacity returns the bank size in bytes.
func (b *Bank) Capacity() int64 { return b.spec.Capacity }

// Persistent reports whether contents survive power loss.
func (b *Bank) Persistent() bool { return b.spec.Persistent }

// Write occupies the bus for an n-byte store and blocks the caller until
// the data is in the array (serialization + access latency).
func (b *Bank) Write(p *sim.Proc, n int) {
	b.bus.Transfer(p, n)
}

// Read occupies the bus for an n-byte load.
func (b *Bank) Read(p *sim.Proc, n int) {
	b.bus.Transfer(p, n)
}

// WriteAsync stores n bytes without blocking the caller; fn (may be nil)
// runs in scheduler context when the store lands (serialization + access
// latency after the bus frees up).
func (b *Bank) WriteAsync(n int, fn func()) {
	b.bus.Send(n, fn)
}

// SerializationTime returns how long an n-byte access occupies the bus,
// excluding the fixed access latency — the pacing quantum for pipelined
// stores.
func (b *Bank) SerializationTime(n int) time.Duration { return b.bus.SerializationTime(n) }

// Bus exposes the underlying link for utilization stats.
func (b *Bank) Bus() *sim.Link { return b.bus }
