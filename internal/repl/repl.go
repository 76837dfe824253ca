// Package repl manages a replication group of Villars devices (paper
// §4.2, §7.1): it wires NTB bridges between the peers, assigns transport
// roles through the vendor-specific NVMe admin commands, selects a
// replication scheme, and performs the promotion/demotion sequences the
// paper assigns to the database system.
package repl

import (
	"errors"
	"fmt"
	"slices"

	"xssd/internal/core"
	"xssd/internal/ntb"
	"xssd/internal/nvme"
	"xssd/internal/obs"
	"xssd/internal/sim"
	"xssd/internal/villars"
)

// Sentinel errors. Concrete failures wrap these with device context, so
// callers match with errors.Is.
var (
	// ErrNoDevices reports a cluster constructed over zero devices.
	ErrNoDevices = errors.New("repl: cluster needs at least one device")
	// ErrIndexRange reports a primary/promote index outside the device set.
	ErrIndexRange = errors.New("repl: device index out of range")
	// ErrChainTooShort reports a chain setup over fewer than two devices.
	ErrChainTooShort = errors.New("repl: a chain needs at least two devices")
	// ErrModeRejected reports a device refusing a transport-mode command.
	ErrModeRejected = errors.New("repl: device rejected transport-mode command")
	// ErrNoCandidate reports an election with no promotable secondary:
	// every survivor is dead or its shadow reporting is frozen. A failover
	// manager retries once freezes expire.
	ErrNoCandidate = errors.New("repl: no promotable secondary")
)

// Cluster is a replication group. Exactly one member is primary; the rest
// are secondaries receiving the mirrored fast-side stream.
type Cluster struct {
	devices []*villars.Device
	primary int
	scheme  core.ReplicationScheme

	// bridges[i][j] carries traffic from device i to device j.
	bridges [][]*ntb.Bridge

	// order is the chain topology as device indices, head first (nil for
	// star schemes). Election and promotion walk it so takeovers preserve
	// the chain's prefix ordering.
	order []int

	promotions int
}

// New creates a cluster over devices (at least one) with a full mesh of
// NTB bridges, so any member can later be promoted without re-cabling.
// Metrics register under the "repl" scope; a process embedding several
// replica sets in one metrics tree should use NewScoped instead.
func New(env *sim.Env, devices []*villars.Device) (*Cluster, error) {
	return NewScoped(env, devices, "repl")
}

// NewScoped is New with the metrics scope chosen by the caller, so
// multiple replica sets (one per shard, say) keep distinct names.
func NewScoped(env *sim.Env, devices []*villars.Device, scope string) (*Cluster, error) {
	if len(devices) == 0 {
		return nil, ErrNoDevices
	}
	c := &Cluster{devices: devices, primary: -1}
	c.bridges = make([][]*ntb.Bridge, len(devices))
	for i := range devices {
		c.bridges[i] = make([]*ntb.Bridge, len(devices))
		for j := range devices {
			if i == j {
				continue
			}
			// Each bridge belongs to the sending device's Env and delivers
			// through the group mailbox: in a multi-env group the far end is
			// a different member; with every device on one Env the bridge
			// posts to itself.
			c.bridges[i][j] = ntb.NewDefaultBridgeTo(devices[i].Env(), devices[j].Env(), fmt.Sprintf("%s->%s", devices[i].Name(), devices[j].Name()))
		}
	}
	sc := obs.For(env).Scope(scope)
	sc.GaugeFunc("promotions", func() int64 { return int64(c.promotions) })
	sc.GaugeFunc("primary", func() int64 { return int64(c.primary) })
	return c, nil
}

// ClusterStats is the typed telemetry snapshot of a replication group.
type ClusterStats struct {
	// Primary is the current primary's device name ("" before Setup).
	Primary string
	// Scheme is the active replication scheme.
	Scheme core.ReplicationScheme
	// Promotions counts completed failovers.
	Promotions int
	// Lag holds, per secondary peer of the primary, how many stream bytes
	// its shadow counter trails the primary's local counter.
	Lag []int64
}

// Stats returns the cluster's typed snapshot.
func (c *Cluster) Stats() ClusterStats {
	s := ClusterStats{Scheme: c.scheme, Promotions: c.promotions, Lag: c.Lag()}
	if p := c.Primary(); p != nil {
		s.Primary = p.Name()
	}
	return s
}

// Devices returns the cluster members.
func (c *Cluster) Devices() []*villars.Device { return c.devices }

// Primary returns the current primary, or nil before Setup.
func (c *Cluster) Primary() *villars.Device {
	if c.primary < 0 {
		return nil
	}
	return c.devices[c.primary]
}

// Scheme returns the active replication scheme.
func (c *Cluster) Scheme() core.ReplicationScheme { return c.scheme }

// setMode issues the vendor-specific transport-mode command to a device.
func setMode(p *sim.Proc, d *villars.Device, mode core.TransportMode) error {
	comp := d.HostDriver().Submit(p, nvme.Command{
		Opcode: nvme.OpXSetTransportMode,
		CDW:    int64(mode),
	})
	if comp.Status != nvme.StatusSuccess {
		return fmt.Errorf("%w: set %s on %s (status %d)", ErrModeRejected, mode, d.Name(), comp.Status)
	}
	return nil
}

// Setup elects devices[primaryIdx] primary under scheme and wires the
// topology the scheme needs. Eager and lazy get a star: the primary
// mirrors to every other device. Chain gets a chain (paper §4.2): the
// primary heads it, the other devices follow in index order, each link
// mirrors to its successor and reports whole-chain persistence upstream,
// and the head reports the chain-combined counter to the database. A
// chain needs at least two devices (ErrChainTooShort). Must run in
// process context.
//
//xssd:conduit cluster bring-up: devices are quiescent until roles are assigned
func (c *Cluster) Setup(p *sim.Proc, primaryIdx int, scheme core.ReplicationScheme) error {
	if primaryIdx < 0 || primaryIdx >= len(c.devices) {
		return fmt.Errorf("%w: primary %d of %d devices", ErrIndexRange, primaryIdx, len(c.devices))
	}
	if scheme == core.Chain && len(c.devices) < 2 {
		return fmt.Errorf("%w: have %d", ErrChainTooShort, len(c.devices))
	}
	c.primary = primaryIdx
	c.scheme = scheme
	c.order = nil
	for _, d := range c.devices {
		d.Transport().ClearPeers()
	}
	links := c.star()
	if scheme == core.Chain {
		// The same devices in the same order, each mirroring to the next.
		c.order = []int{primaryIdx}
		for k, l := range links {
			links[k][0] = c.order[k]
			c.order = append(c.order, l[1])
		}
	}
	return c.wire(p, links)
}

// star returns the links of a star around the primary, one to every other
// live device in index order.
func (c *Cluster) star() [][2]int {
	var links [][2]int
	for i, d := range c.devices {
		if i != c.primary && !d.PowerLost() {
			links = append(links, [2]int{c.primary, i})
		}
	}
	return links
}

// wire is the one bring-up order of every topology: it selects the scheme
// on the primary, attaches each link (from, to) with AddPeer, then sends the
// role commands, every link's far end secondary in link order and the
// primary last. A secondary starts reporting its counter when its role
// command lands, so a star, a chain and a promoted star all start alike.
func (c *Cluster) wire(p *sim.Proc, links [][2]int) error {
	prim := c.devices[c.primary]
	prim.Transport().SetScheme(c.scheme)
	for _, l := range links {
		from, to := l[0], l[1]
		c.devices[from].Transport().AddPeer(c.devices[to], c.bridges[from][to], c.bridges[to][from])
	}
	for _, l := range links {
		if err := setMode(p, c.devices[l[1]], core.Secondary); err != nil {
			return err
		}
	}
	return setMode(p, prim, core.Primary)
}

// Promote fails over to devices[newPrimary]. The old primary, if alive,
// is demoted to a secondary with no peers. A star (eager, lazy) is rebuilt
// around the new primary from the live devices. A chain promotes the link
// in place: it keeps its downstream links and their retransmission
// windows, so holes below it heal through the ordinary repair path, and
// the chain above it is cut off. A device that is not a link of the
// current chain is rejected with ErrIndexRange. The paper (§7.1) leaves
// catch-up data transfer to the database; Promote only performs the role
// changes.
//
//xssd:conduit role change at the failover barrier: no host traffic flows while peers are re-wired
func (c *Cluster) Promote(p *sim.Proc, newPrimary int) error {
	if newPrimary < 0 || newPrimary >= len(c.devices) {
		return fmt.Errorf("%w: promote %d of %d devices", ErrIndexRange, newPrimary, len(c.devices))
	}
	if newPrimary == c.primary {
		return nil
	}
	pos := slices.Index(c.order, newPrimary)
	if c.order != nil && pos < 0 {
		return fmt.Errorf("%w: device %d is not a chain link", ErrIndexRange, newPrimary)
	}
	old := c.primary
	if old >= 0 && !c.devices[old].PowerLost() {
		if err := setMode(p, c.devices[old], core.Secondary); err != nil {
			return err
		}
		c.devices[old].Transport().ClearPeers()
	}
	c.promotions++
	c.primary = newPrimary
	if c.order != nil {
		c.order = c.order[pos:]
		return c.wire(p, nil)
	}
	c.devices[newPrimary].Transport().ClearPeers()
	return c.wire(p, c.star())
}

// Elect picks the secondary to promote after the primary's death,
// per scheme (paper §4.2: the shadow counters exist precisely so a
// surviving peer knows the persisted prefix it may serve from):
//
//   - chain: the next link in chain order — it holds the longest prefix
//     by the chain's construction, and promoting it preserves every
//     downstream link's retransmission state. A frozen next link is not
//     skipped (reordering the chain would orphan retransmission windows);
//     the election fails and the caller retries once the freeze expires.
//   - eager/lazy: the survivor with the longest persisted prefix, ties
//     broken by the lowest device index.
//
// Devices that are power-lost or advertising StatusShadowFrozen are
// never elected. Returns ErrNoCandidate when no survivor qualifies.
func (c *Cluster) Elect() (int, error) {
	if c.order != nil {
		for _, idx := range c.order[slices.Index(c.order, c.primary)+1:] {
			d := c.devices[idx]
			if d.PowerLost() {
				continue
			}
			if d.Transport().ShadowFrozen() {
				return 0, fmt.Errorf("%w: next chain link %s is frozen", ErrNoCandidate, d.Name())
			}
			return idx, nil
		}
		return 0, fmt.Errorf("%w: no live link after %d in the chain", ErrNoCandidate, c.primary)
	}
	best, bestFr := -1, int64(-1)
	for i, d := range c.devices {
		if i == c.primary || d.PowerLost() || d.Transport().ShadowFrozen() {
			continue
		}
		if fr := d.CMB().Ring().Frontier(); fr > bestFr {
			best, bestFr = i, fr
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("%w: scheme %s", ErrNoCandidate, c.scheme)
	}
	return best, nil
}

// Lag returns, for each secondary peer of the current primary, how many
// stream bytes its shadow counter trails the primary's local counter. A
// chain's head has one peer, its successor, so Lag has one entry.
func (c *Cluster) Lag() []int64 {
	prim := c.Primary()
	if prim == nil {
		return nil
	}
	local := prim.CMB().Ring().Frontier()
	n := prim.Transport().Peers()
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		out[i] = local - prim.Transport().Shadow(i)
	}
	return out
}
