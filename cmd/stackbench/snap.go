package main

import (
	"strings"

	"xssd/internal/obs"
)

// snapView indexes an obs snapshot by series name. Counters and gauges
// share one namespace here: the benchmark only ever reads monotone gauges
// (nand/programs, ftl/host_pages, pcie/bytes) or point-in-time levels, and
// no module registers the same name as both kinds.
type snapView struct {
	vals  map[string]int64
	hists map[string]obs.HistogramSnapshot
}

func newSnapView(s *obs.Snapshot) snapView {
	v := snapView{vals: map[string]int64{}, hists: map[string]obs.HistogramSnapshot{}}
	for _, c := range s.Counters {
		v.vals[c.Name] = c.Value
	}
	for _, g := range s.Gauges {
		v.vals[g.Name] = g.Value
	}
	for _, h := range s.Histograms {
		v.hists[h.Name] = h
	}
	return v
}

// obsDelta is the difference between the snapshot taken when warm-up ended
// and the one taken when the timed window ended. typed carries the same
// two readings of values the program exposes only through typed Stats()
// calls (controller command counts, engine commit counts).
type obsDelta struct {
	from, to   snapView
	typed0     map[string]int64
	typed1     map[string]int64
	windowNs   float64
	primaries  []string // primary-role device names
	allDevices []string // every device of the topology
}

// count returns the window's increase of one counter or monotone gauge.
func (d *obsDelta) count(name string) int64 { return d.to.vals[name] - d.from.vals[name] }

// level returns a gauge's value at window end.
func (d *obsDelta) level(name string) int64 { return d.to.vals[name] }

// typed returns the window's increase of a typed-stats reading.
func (d *obsDelta) typed(name string) int64 { return d.typed1[name] - d.typed0[name] }

// histAgg is the exact part of a histogram difference: observation count
// and sum over the window, and the maximum since the series was created
// (a maximum cannot be differenced; warm-up is short, so it is the
// window's maximum unless warm-up held the outlier).
type histAgg struct {
	n, sum, max int64
}

func (a histAgg) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.n)
}

func (d *obsDelta) hist(name string) histAgg {
	a, b := d.from.hists[name], d.to.hists[name]
	return histAgg{n: b.N - a.N, sum: b.Sum - a.Sum, max: b.Max}
}

// sumCount adds count(prefix + "/" + suffix) over prefixes.
func (d *obsDelta) sumCount(prefixes []string, suffix string) int64 {
	var n int64
	for _, p := range prefixes {
		n += d.count(p + "/" + suffix)
	}
	return n
}

// sumLevel adds level(prefix + "/" + suffix) over prefixes.
func (d *obsDelta) sumLevel(prefixes []string, suffix string) int64 {
	var n int64
	for _, p := range prefixes {
		n += d.level(p + "/" + suffix)
	}
	return n
}

// sumHist merges hist(prefix + "/" + suffix) over prefixes.
func (d *obsDelta) sumHist(prefixes []string, suffix string) histAgg {
	var out histAgg
	for _, p := range prefixes {
		h := d.hist(p + "/" + suffix)
		out.n += h.n
		out.sum += h.sum
		if h.max > out.max {
			out.max = h.max
		}
	}
	return out
}

// matchCount adds count(name) over every series named prefix…suffix
// (bridges and shards name their series by an index in the middle).
func (d *obsDelta) matchCount(prefix, suffix string) int64 {
	var n int64
	for name := range d.to.vals {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			n += d.count(name)
		}
	}
	return n
}

// matchLevel adds level(name) over every series named prefix…suffix.
func (d *obsDelta) matchLevel(prefix, suffix string) int64 {
	var n int64
	for name, v := range d.to.vals {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			n += v
		}
	}
	return n
}

// matchHist merges hist(name) over every series named prefix…suffix.
func (d *obsDelta) matchHist(prefix, suffix string) histAgg {
	var out histAgg
	for name := range d.to.hists {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			h := d.hist(name)
			out.n += h.n
			out.sum += h.sum
			if h.max > out.max {
				out.max = h.max
			}
		}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const usPerNs = 1e-3

// deviceLayers fills every per-layer metric read from the obs registry. A
// module a topology does not build registers no series, so its metrics
// read zero there. pageSize and dies describe one primary device's NAND
// array.
func (d *obsDelta) deviceLayers(m metrics, walSinks []string, pageSize, dies int) {
	prim, all := d.primaries, d.allDevices

	wal := make([]string, len(walSinks))
	for i, s := range walSinks {
		wal[i] = "wal/" + s
	}
	flush := d.sumHist(wal, "flush_ns")
	m["wal.records"] = float64(d.sumCount(wal, "records"))
	m["wal.flushes"] = float64(d.sumCount(wal, "flushes"))
	m["wal.records_per_flush"] = ratio(m["wal.records"], m["wal.flushes"])
	m["wal.flush_us_mean"] = flush.mean() * usPerNs
	m["wal.flush_us_max"] = float64(flush.max) * usPerNs
	m["wal.sink_retries"] = float64(d.sumCount(wal, "sink_retries"))
	m["wal.backlog_bytes_end"] = float64(d.sumLevel(wal, "backlog"))
	m["db.redo_bytes_per_commit"] = ratio(float64(d.sumCount(wal, "flush_bytes")), float64(d.typed("db.commits")))

	fsync := d.sumHist(prim, "xapi/fsync_ns")
	m["xapi.bytes"] = float64(d.sumCount(prim, "xapi/bytes"))
	m["xapi.fsync_us_mean"] = fsync.mean() * usPerNs
	m["xapi.fsync_us_max"] = float64(fsync.max) * usPerNs
	m["xapi.stall_us_total"] = float64(d.sumHist(prim, "xapi/stall_ns").sum) * usPerNs
	m["xapi.credit_reads_per_mb"] = ratio(float64(d.sumCount(prim, "xapi/credit_reads")), m["xapi.bytes"]/1e6)

	m["pcie.transfers"] = float64(d.sumCount(prim, "pcie/transfers"))
	m["pcie.wire_bytes"] = float64(d.sumCount(prim, "pcie/bytes"))
	m["pcie.payload_frac"] = ratio(m["xapi.bytes"], m["pcie.wire_bytes"])

	persist := d.sumHist(prim, "cmb/persist_ns")
	m["cmb.bytes_in"] = float64(d.sumCount(prim, "cmb/bytes_in"))
	m["cmb.persist_ns_mean"] = persist.mean()
	m["cmb.persist_ns_max"] = float64(persist.max)
	m["cmb.overruns"] = float64(d.sumCount(prim, "cmb/overruns"))
	m["cmb.rejected"] = float64(d.sumCount(prim, "cmb/rejected"))

	page := d.sumHist(prim, "destage/page_ns")
	m["destage.pages"] = float64(d.sumCount(prim, "destage/pages"))
	m["destage.page_us_mean"] = page.mean() * usPerNs
	m["destage.page_us_max"] = float64(page.max) * usPerNs
	m["destage.partial_pages"] = float64(d.sumCount(prim, "destage/partial_pages"))
	m["destage.filler_bytes"] = float64(d.sumCount(prim, "destage/filler_bytes"))
	m["destage.retries"] = float64(d.sumCount(prim, "destage/retries"))
	m["destage.lag_bytes_end"] = float64(d.sumLevel(prim, "cmb/live"))

	for _, src := range []string{"destage", "conventional", "gc"} {
		w := d.sumHist(prim, "sched/"+src+"/wait_ns")
		m["sched."+src+".ops"] = float64(d.sumCount(prim, "sched/"+src+"/ops"))
		m["sched."+src+".wait_us_mean"] = w.mean() * usPerNs
		if src != "gc" {
			m["sched."+src+".wait_us_max"] = float64(w.max) * usPerNs
		}
	}

	busy := d.sumHist(prim, "nand/program_ns").sum + d.sumHist(prim, "nand/read_ns").sum + d.sumHist(prim, "nand/erase_ns").sum
	m["nand.programs"] = float64(d.sumCount(prim, "nand/programs"))
	m["nand.reads"] = float64(d.sumCount(prim, "nand/reads"))
	m["nand.erases"] = float64(d.sumCount(prim, "nand/erases"))
	m["nand.busy_frac"] = ratio(float64(busy), float64(dies*len(prim))*d.windowNs)

	host, gc := float64(d.sumCount(prim, "ftl/host_pages")), float64(d.sumCount(prim, "ftl/gc_pages"))
	m["ftl.host_pages"] = host
	m["ftl.gc_pages"] = gc
	m["ftl.gc_erases"] = float64(d.sumCount(prim, "ftl/gc_erases"))
	m["ftl.waf"] = 1
	if host > 0 {
		m["ftl.waf"] = (host + gc) / host
	}
	m["ftl.free_blocks_end"] = float64(d.sumLevel(prim, "ftl/free_blocks"))
	m["ftl.bad_retries"] = float64(d.sumCount(prim, "ftl/bad_retries"))

	// The controller keeps its Data Buffer hit counter private, so hits are
	// derived: block reads the controller executed minus conventional-class
	// flash reads the scheduler dispatched (its ops minus its programs).
	// Reads in flight at either window edge skew this by at most the queue
	// depth.
	cmd := d.sumHist(prim, "nvme/q0/submit_complete_ns")
	convReads := d.sumCount(prim, "sched/conventional/ops") - d.sumCount(prim, "sched/conventional/bytes")/int64(pageSize)
	hits := d.typed("hic.reads") - convReads
	if hits < 0 {
		hits = 0
	}
	m["nvme.cmds"] = float64(cmd.n)
	m["nvme.errors"] = float64(d.typed("hic.errors"))
	m["nvme.cmd_us_mean"] = cmd.mean() * usPerNs
	m["nvme.cmd_us_max"] = float64(cmd.max) * usPerNs
	m["hic.cache_hits"] = float64(hits)
	m["hic.cache_hit_frac"] = ratio(float64(hits), float64(d.typed("hic.reads")))

	lag := d.sumHist(all, "transport/update_lag_bytes")
	m["transport.mirrored_bytes"] = float64(d.sumCount(all, "transport/mirrored_bytes"))
	m["transport.updates_sent"] = float64(d.sumCount(all, "transport/updates_sent"))
	m["transport.counter_updates"] = float64(d.sumCount(all, "transport/counter_updates"))
	m["transport.updates_suppressed"] = float64(d.sumCount(all, "transport/updates_suppressed"))
	m["transport.update_lag_bytes_mean"] = lag.mean()
	m["transport.update_lag_bytes_max"] = float64(lag.max)
	m["transport.repair_resends"] = float64(d.sumCount(all, "transport/repair_resends"))
	var peerLag int64
	for _, p := range prim {
		peerLag += d.matchLevel(p+"/transport/peer", "/lag")
	}
	m["transport.peer_lag_bytes_end"] = float64(peerLag)

	m["ntb.chunks"] = float64(d.matchCount("ntb/", "/chunks"))
	m["ntb.bytes"] = float64(d.matchCount("ntb/", "/bytes"))
	m["ntb.dropped"] = float64(d.matchCount("ntb/", "/dropped"))

	prep, commit := d.matchHist("cluster/shard/", "/2pc/prepare_ns"), d.matchHist("cluster/shard/", "/2pc/commit_ns")
	m["shard.2pc.prepares"] = float64(d.matchCount("cluster/shard/", "/2pc/prepares"))
	m["shard.2pc.commits"] = float64(d.matchCount("cluster/shard/", "/2pc/commits"))
	m["shard.2pc.aborts"] = float64(d.matchCount("cluster/shard/", "/2pc/aborts"))
	m["shard.2pc.resolves"] = float64(d.matchCount("cluster/shard/", "/2pc/resolves"))
	m["shard.2pc.prepare_us_mean"] = prep.mean() * usPerNs
	m["shard.2pc.commit_us_mean"] = commit.mean() * usPerNs
	m["shard.2pc.commit_us_max"] = float64(commit.max) * usPerNs
	m["shard.rpc.out"] = float64(d.matchCount("cluster/shard/", "/rpc/out"))
	m["shard.remote_txn_frac"] = ratio(m["shard.2pc.commits"]+m["shard.2pc.aborts"], float64(d.typed("tpcc.attempts")))

	for _, dev := range prim {
		m["btree.pager.hits"] += float64(d.count(dev + "/pager/hits"))
		m["btree.pager.misses"] += float64(d.count(dev + "/pager/misses"))
		m["btree.pager.evictions"] += float64(d.count(dev + "/pager/evictions"))
		m["btree.pager.reads"] += float64(d.count(dev + "/pager/reads"))
		m["btree.pager.writes"] += float64(d.count(dev + "/pager/writes"))
	}
	m["btree.pager.hit_frac"] = ratio(m["btree.pager.hits"], m["btree.pager.hits"]+m["btree.pager.misses"])

	dur := d.sumHist(prim, "ckpt/duration_ns")
	m["ckpt.completed"] = float64(d.sumCount(prim, "ckpt/completed"))
	m["ckpt.aborted"] = float64(d.sumCount(prim, "ckpt/aborted"))
	m["ckpt.pages_written"] = float64(d.sumCount(prim, "ckpt/pages_written"))
	m["ckpt.duration_ms_mean"] = dur.mean() / 1e6
	m["ckpt.duration_ms_max"] = float64(dur.max) / 1e6
	m["ckpt.recover_tail_records"], m["ckpt.recover_total_records"] = 0, 0 // tpcc_paged overrides
}

// nandBytes returns the NAND bytes programmed in the window on every
// device of the topology (host + GC pages × page size).
func (d *obsDelta) nandBytes(pageSize int) float64 {
	pages := d.sumCount(d.allDevices, "ftl/host_pages") + d.sumCount(d.allDevices, "ftl/gc_pages")
	return float64(pages) * float64(pageSize)
}
