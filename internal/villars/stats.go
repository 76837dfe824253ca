package villars

import (
	"time"

	"xssd/internal/ftl"
	"xssd/internal/obs"
	"xssd/internal/sched"
)

// The typed stats snapshots below are the sanctioned way to read device
// telemetry from outside the package: one Stats() call assembles a plain
// struct of values, so callers never reach into module internals (the old
// Raw() pattern). All values are cumulative since construction unless
// noted; all durations are virtual time.

// CMBStats describes one fast side's intake and ring state.
type CMBStats struct {
	// BytesIn is the payload accepted on the CMB interface.
	BytesIn int64
	// Overruns counts TLPs dropped because the intake queue was full.
	Overruns int64
	// Rejected counts writes dropped for other reasons (power loss, stale
	// offsets).
	Rejected int64
	// QueueUsed is the current intake-queue fill in bytes.
	QueueUsed int
	// Credit is the local persist frontier (the raw credit counter).
	Credit int64
	// Live is the ring data persisted but not yet destaged.
	Live int64
}

// DestageStats describes one fast side's destage pipeline.
type DestageStats struct {
	// Stream is the stream bytes durable on the conventional side.
	Stream int64
	// Pages and PartialPages count written flash pages; FillerBytes is the
	// padding inside the partial ones and PayloadBytes the stream bytes
	// carved into all of them.
	Pages, PartialPages       int64
	FillerBytes, PayloadBytes int64
	// Retries counts failed page programs that were retried; Errors counts
	// pages that hit carve or retire errors.
	Retries, Errors int64
	// TailLBA is the ring slot the next page lands in; BaseLBA/LBACount
	// locate the destage ring on the conventional side.
	TailLBA, BaseLBA, LBACount int64
}

// PeerStats is the primary's view of one secondary.
type PeerStats struct {
	ID int
	// Shadow is the last counter value the peer reported; Lag is how far it
	// trails the local persist frontier.
	Shadow, Lag int64
	// Unacked is the number of mirror chunks awaiting shadow coverage.
	Unacked int
}

// TransportStats describes the replication transport.
type TransportStats struct {
	Mode   string
	Scheme string
	// MirroredBytes counts bytes forwarded to peers (per peer);
	// CounterUpdates counts accepted shadow updates (primary role);
	// UpdatesSent counts updates emitted (secondary role).
	MirroredBytes, CounterUpdates, UpdatesSent int64
	// Fault-path counters: mirror chunks the fault plan dropped or
	// delayed, chunks the repair process resent, and shadow updates
	// suppressed.
	MirrorDrops, MirrorDelays, RepairResends, UpdatesSuppressed int64
	// Stalled reports whether any peer currently trips the stall detector.
	Stalled bool
	Peers   []PeerStats
}

// SourceStats describes one scheduler traffic class.
type SourceStats struct {
	Ops, Bytes int64
	AvgWait    time.Duration
}

// SchedStats describes the storage-controller scheduler.
type SchedStats struct {
	Policy       string
	Conventional SourceStats
	Destage      SourceStats
	GC           SourceStats
}

// NANDStats describes the flash array.
type NANDStats struct {
	Reads, Programs, Erases int64
	InjectedBadBlocks       int64
}

// FTLStats describes the flash translation layer.
type FTLStats struct {
	ftl.Stats
	FreeBlocks int
}

// VFStats is the typed snapshot of one virtual function.
type VFStats struct {
	Name    string
	CMB     CMBStats
	Destage DestageStats
}

// DeviceStats is the typed snapshot of a whole device.
type DeviceStats struct {
	Name string
	// Now is the virtual time the snapshot was taken.
	Now       time.Duration
	PowerLost bool
	// EffectiveCredit is the replication-aware credit the host sees.
	EffectiveCredit int64

	CMB       CMBStats
	Destage   DestageStats
	Transport TransportStats
	Sched     SchedStats
	NAND      NANDStats
	FTL       FTLStats
	VFs       []VFStats
	// HostQueues is the per-queue view of the NVMe host interface, one
	// entry per queue pair (at least one).
	HostQueues []HostQueueStats
}

// HostQueueStats is one NVMe queue pair's counters plus the driver's
// submit→complete latency digest. The digest is zero unless a reader
// registered the driver's per-queue instruments (Driver.Observe).
type HostQueueStats struct {
	Queue     int
	Submitted int64
	Completed int64
	Inflight  int
	LastSeq   uint64
	SQDepth   int
	CQDepth   int
	Latency   obs.Summary
}

func (fs *fastSide) cmbStats() CMBStats {
	m := fs.cmb
	return CMBStats{
		BytesIn:   m.mBytesIn.Value(),
		Overruns:  m.mOverruns.Value(),
		Rejected:  m.mRejected.Value(),
		QueueUsed: m.queueUsed,
		Credit:    m.ring.Frontier(),
		Live:      m.ring.Live(),
	}
}

func (fs *fastSide) destageStats() DestageStats {
	m := fs.destage
	return DestageStats{
		Stream:       m.DestagedStream(),
		Pages:        m.mPages.Value(),
		PartialPages: m.mPartialPages.Value(),
		FillerBytes:  m.mFillerBytes.Value(),
		PayloadBytes: m.carved,
		Retries:      m.mRetries.Value(),
		Errors:       m.mErrors.Value(),
		TailLBA:      m.tail,
		BaseLBA:      m.baseLBA,
		LBACount:     m.lbaCount,
	}
}

func (t *transportModule) stats() TransportStats {
	s := TransportStats{
		Mode:              t.mode.String(),
		Scheme:            t.scheme.String(),
		MirroredBytes:     t.mMirroredBytes.Value(),
		CounterUpdates:    t.mCounterUpdates.Value(),
		UpdatesSent:       t.mUpdatesSent.Value(),
		MirrorDrops:       t.mMirrorDrops.Value(),
		MirrorDelays:      t.mMirrorDelays.Value(),
		RepairResends:     t.mRepairResends.Value(),
		UpdatesSuppressed: t.mUpdatesSuppressed.Value(),
		Stalled:           t.stalled(),
	}
	local := t.dev.fs.cmb.ring.Frontier()
	for _, pl := range t.peers {
		s.Peers = append(s.Peers, PeerStats{
			ID:      pl.id,
			Shadow:  pl.shadow,
			Lag:     local - pl.shadow,
			Unacked: pl.unacked.Len(),
		})
	}
	return s
}

func (d *Device) schedStats() SchedStats {
	src := func(s sched.Source) SourceStats {
		return SourceStats{
			Ops:     d.sch.OpsBySource(s),
			Bytes:   d.sch.BytesBySource(s),
			AvgWait: d.sch.AvgWait(s),
		}
	}
	return SchedStats{
		Policy:       d.sch.Policy().String(),
		Conventional: src(sched.Conventional),
		Destage:      src(sched.Destage),
		GC:           src(sched.GC),
	}
}

// Stats assembles the device's typed telemetry snapshot, including one
// VFStats per virtual function in creation order.
func (d *Device) Stats() DeviceStats {
	reads, programs, erases := d.arr.Stats()
	s := DeviceStats{
		Name:            d.cfg.Name,
		Now:             d.env.Now(),
		PowerLost:       d.powerLost,
		EffectiveCredit: d.EffectiveCredit(),
		CMB:             d.fs.cmbStats(),
		Destage:         d.fs.destageStats(),
		Transport:       d.transport.stats(),
		Sched:           d.schedStats(),
		NAND: NANDStats{
			Reads:             reads,
			Programs:          programs,
			Erases:            erases,
			InjectedBadBlocks: d.arr.InjectedBadBlocks(),
		},
		FTL: FTLStats{Stats: d.ftl.Stats(), FreeBlocks: d.ftl.FreeBlocks()},
	}
	for _, vf := range d.vfs {
		s.VFs = append(s.VFs, vf.Stats())
	}
	for i := 0; i < d.qset.Len(); i++ {
		s.HostQueues = append(s.HostQueues, HostQueueStats{
			Queue:     i,
			Submitted: d.driver.Submitted(i),
			Completed: d.driver.Completed(i),
			Inflight:  d.driver.Inflight(i),
			LastSeq:   d.driver.LastSeq(i),
			SQDepth:   d.qset.Pair(i).SQ.Len(),
			CQDepth:   d.qset.Pair(i).CQ.Len(),
			Latency:   d.driver.Latency(i).Summary(),
		})
	}
	return s
}

// Stats assembles the virtual function's typed telemetry snapshot.
func (v *VirtualFunction) Stats() VFStats {
	return VFStats{
		Name:    v.fs.name,
		CMB:     v.fs.cmbStats(),
		Destage: v.fs.destageStats(),
	}
}
