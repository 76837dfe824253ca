// Package core defines the X-SSD architecture (paper §3): the contracts
// shared between a device that implements the architecture (the Villars
// reference design in internal/villars) and the host-side software that
// talks to it (internal/xapi).
//
// The architecture couples two sides in one device. The conventional side
// is an ordinary NVMe block SSD. The fast side is a byte-addressable,
// append-only staging area backed by persistent memory and exposed through
// the NVMe Controller Memory Buffer, with three data-propagation services:
// in-order destaging to flash, mirroring to peer devices, and a credit
// counter the host uses for flow control and durability tracking.
package core

import "time"

// TransportMode is the role of a device's Transport module (paper §4.2).
type TransportMode int

// Transport modes. Mode changes are issued through vendor-specific NVMe
// admin commands and require no hardware change.
const (
	// Standalone: transport inactive; only CMB and destage run.
	Standalone TransportMode = iota
	// Primary: mirror every fast-side write to the configured peers and
	// collect their shadow counters.
	Primary
	// Secondary: accept mirrored writes through the CMB and report the
	// local credit counter back to the primary.
	Secondary
)

// String implements fmt.Stringer.
func (m TransportMode) String() string {
	switch m {
	case Standalone:
		return "standalone"
	case Primary:
		return "primary"
	case Secondary:
		return "secondary"
	}
	return "unknown"
}

// ReplicationScheme selects which counter combination the device reports
// to the host as "the" credit counter (paper §4.2).
type ReplicationScheme int

// Replication schemes built on shadow counters.
const (
	// Eager: report the minimum across local and all shadow counters — a
	// byte counts only when every secondary persisted it.
	Eager ReplicationScheme = iota
	// Lazy: report the local counter; secondaries catch up asynchronously.
	Lazy
	// Chain: report the shadow counter of the last secondary in the chain.
	Chain
)

// String implements fmt.Stringer.
func (s ReplicationScheme) String() string {
	switch s {
	case Eager:
		return "eager"
	case Lazy:
		return "lazy"
	case Chain:
		return "chain"
	}
	return "unknown"
}

// Control-interface register layout. The fast side exposes, next to the
// CMB data window, a small MMIO register file the host reads with
// non-posted loads. All registers are 8 bytes, little-endian.
const (
	// RegCredit is the replication-aware credit counter: the number of
	// stream bytes durable under the active replication scheme. This is
	// the register x_pwrite/x_fsync poll.
	RegCredit = 0x00
	// RegLocalCredit is the local persist frontier regardless of scheme.
	RegLocalCredit = 0x08
	// RegQueueSize is the negotiated CMB intake-queue size in bytes.
	RegQueueSize = 0x10
	// RegStatus is the transport status register (see Status* bits).
	// Paper §7.1: the host checks it when it suspects a stale counter
	// rather than spinning on credit reads.
	RegStatus = 0x18
	// RegDestagedStream is the number of stream bytes destaged to flash.
	RegDestagedStream = 0x20
	// RegDestageBaseLBA is the first LBA of the destage ring.
	RegDestageBaseLBA = 0x28
	// RegDestageLBACount is the length of the destage ring in LBAs.
	RegDestageLBACount = 0x30
	// RegDestageTailLBA is the ring slot the next destaged page will use.
	RegDestageTailLBA = 0x38
	// ControlSize is the size of the register file.
	ControlSize = 0x40
)

// Status register bits.
const (
	// StatusTransportUp is set while the transport module is healthy.
	StatusTransportUp = 1 << 0
	// StatusReplicaStalled is set when a secondary has not refreshed its
	// shadow counter within the stall timeout.
	StatusReplicaStalled = 1 << 1
	// StatusPowerLoss is set after a power-loss event while the device
	// drains the fast side on supercapacitor energy.
	StatusPowerLoss = 1 << 2
	// StatusShadowFrozen is set while the device's own shadow-counter
	// reporting is suppressed (a secondary whose upstream updates are
	// frozen). A failover manager must not promote a device advertising
	// this bit: its persisted prefix cannot be trusted as current.
	StatusShadowFrozen = 1 << 3
)

// CounterUpdateBytes is the total on-wire size of a shadow-counter update
// message (an NTB doorbell-style write). Sized so that a 0.4 µs update
// period costs ~2.4% of a 2 GB/s link, matching the paper's Fig 13
// bandwidth numbers.
const CounterUpdateBytes = 19

// DefaultQueueSize is the CMB intake-queue size the paper recommends: a
// 32 KB queue lets typical OLTP group commits pass without intermediate
// credit checks (paper §6.3).
const DefaultQueueSize = 32 << 10

// DefaultDestageLatencyBound is how long the destage module lets data sit
// in the fast side before destaging a partial (filler-padded) page.
const DefaultDestageLatencyBound = 2 * time.Millisecond

// FlowControl implements the host half of the credit protocol (paper
// §4.1): the host may have at most QueueSize bytes outstanding beyond the
// last credit value it observed. The device side is advisory — a host that
// overruns loses the guarantees — so this bookkeeping is all that is
// needed.
type FlowControl struct {
	queueSize  int64
	written    int64 // stream bytes the host has issued
	lastCredit int64 // last credit value observed
}

// NewFlowControl creates a flow controller for the negotiated queue size.
func NewFlowControl(queueSize int64) *FlowControl {
	return &FlowControl{queueSize: queueSize}
}

// Written returns the total stream bytes issued so far.
func (f *FlowControl) Written() int64 { return f.written }

// Budget returns how many bytes may be written right now without
// re-reading the credit counter.
func (f *FlowControl) Budget() int64 {
	return f.queueSize - (f.written - f.lastCredit)
}

// Note records that n more bytes were issued.
func (f *FlowControl) Note(n int64) { f.written += n }

// Observe records a fresh credit-counter reading and returns the updated
// budget.
func (f *FlowControl) Observe(credit int64) int64 {
	if credit > f.lastCredit {
		f.lastCredit = credit
	}
	return f.Budget()
}

// Covered reports whether the last observed credit value vouches for
// every stream byte below off — the async-token durability condition;
// Covered(Written()) is the x_fsync condition.
func (f *FlowControl) Covered(off int64) bool { return f.lastCredit >= off }

// Resume positions the cursor at a takeover point: the host continues an
// existing stream at off on a device whose credit counter already vouches
// for everything below it (failover to a promoted secondary).
func (f *FlowControl) Resume(off int64) {
	f.written = off
	f.lastCredit = off
}
