package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"xssd/internal/obs"
	"xssd/internal/sim"
)

// config is what one invocation fixes for every repetition. The command
// always runs with groupWorkers and traceDir; the two are fields so the
// test can compare worker counts and write into a temporary directory.
type config struct {
	seed    int64
	scale   float64 // window length relative to the nominal runSeconds
	workers int     // sim.Group workers on the multi-Env workloads
	outDir  string  // where traced runs write trace-<workload>.json
}

const (
	groupWorkers = 2
	traceDir     = "cmd/stackbench/out" // relative to the root of the checkout; git-ignored
)

// workload is one named set of inputs. Windows are virtual durations at
// scale 1; they are constants, never adapted to the host, so two commits
// simulate the same work.
type workload struct {
	name string
	why  string
	loop string

	warmup time.Duration
	window time.Duration
	settle time.Duration

	// build constructs the topology, loads it and releases its load
	// generators; everything it does is timed as set-up.
	build func(cfg config, rec *recorder) (instance, error)
}

// instance is one built topology under load.
type instance interface {
	runner
	// stop asks every load generator to exit at its next loop head.
	stop()
	// typed reads the values the program exposes only through typed
	// Stats() calls, by name; the harness differences two readings.
	typed() map[string]int64
	// layers fills the per-layer metrics from the window's obs difference.
	layers(d *obsDelta, m metrics)
	// userBytes is the payload acknowledged durable in the window, the
	// denominator of nand_bytes_per_user_byte.
	userBytes(d *obsDelta) float64
	// pageSize is the NAND page size of the topology's devices.
	pageSize() int
	// sizes describes the working set against the caches and rings, for
	// the run's header.
	sizes() string
	// devices names the primary-role devices and every device.
	devices() (primaries, all []string)
	// check crashes the topology, recovers it from flash alone and compares
	// with the live state; an acknowledged operation that did not survive is
	// an error. It returns the share of the durable log recovery replayed.
	check() (replayFrac float64, err error)
}

// runner drives one or several Envs in virtual time.
type runner interface {
	runUntil(t time.Duration)
	now() time.Duration
	events() int64
	snapshot() *obs.Snapshot
	close()
}

// simRunner is the runner every workload embeds: a plain Env under the
// classic scheduler, a sim.Group on the multi-Env workloads.
type simRunner struct {
	group *sim.Group
	envs  []*sim.Env
}

func (s *simRunner) runUntil(t time.Duration) {
	if s.group != nil {
		s.group.RunUntil(t)
		return
	}
	s.envs[0].RunUntil(t)
}

func (s *simRunner) now() time.Duration {
	if s.group != nil {
		return s.group.Now()
	}
	return s.envs[0].Now()
}

func (s *simRunner) events() int64 {
	if s.group != nil {
		return s.group.Events()
	}
	return s.envs[0].Events()
}

// snapshot merges every member's registry. It is only called between
// runUntil calls, when no member is executing.
func (s *simRunner) snapshot() *obs.Snapshot {
	snaps := make([]*obs.Snapshot, len(s.envs))
	for i, e := range s.envs {
		snaps[i] = obs.For(e).Snapshot()
	}
	return obs.Merge(snaps...)
}

func (s *simRunner) close() {
	if s.group != nil {
		s.group.Close()
		return
	}
	s.envs[0].Close()
}

// loadGens tracks a topology's load-generator processes so the check can
// wait until the last one has left the program: an operation still in
// flight when the live state is fingerprinted would be in the log but not
// in the fingerprint.
type loadGens struct {
	stopped bool
	running int
}

// spawn starts body as a process of env; body polls g.stopped at its loop
// head.
func (g *loadGens) spawn(env *sim.Env, name string, body func(p *sim.Proc)) {
	g.running++
	env.Go(name, func(p *sim.Proc) {
		body(p)
		g.running--
	})
}

// quiesce drives r, a millisecond at a time, until every generator has
// exited.
func (g *loadGens) quiesce(r runner) error {
	deadline := r.now() + postMortemBudget
	for g.running > 0 && r.now() < deadline {
		r.runUntil(r.now() + time.Millisecond)
	}
	if g.running > 0 {
		return fmt.Errorf("%d load generators still running %v after stop", g.running, postMortemBudget)
	}
	return nil
}

// recorder collects what the load generators observe. The sample arrays
// are allocated once per repetition so recording does not show up in
// allocs_per_commit.
type recorder struct {
	w0, w1 time.Duration // operations acknowledged in [w0, w1) are counted

	lat  []int64 // commit latencies, ns
	conv []int64 // conventional-side command latencies, ns

	execNs, waitNs int64 // summed over counted commits
	errored        int64 // operations that returned an error in the window
	lateMaxNs      int64 // open-loop generator lateness

	spans *spanLog // nil unless this repetition is traced

	// A topology whose generators run on several Envs gives each Env its
	// own fork, so group workers never share a recorder; the harness folds
	// the forks back in once the run has stopped.
	parent *recorder
	forks  []*recorder
}

func newRecorder(traced bool) *recorder {
	r := &recorder{lat: make([]int64, 0, 1<<17), conv: make([]int64, 0, 1<<17)}
	if traced {
		r.spans = newSpanLog()
	}
	return r
}

// fork returns a recorder for one more Env. It shares r's window, which
// only changes between runs.
func (r *recorder) fork() *recorder {
	f := newRecorder(r.spans != nil)
	f.parent = r
	r.forks = append(r.forks, f)
	return f
}

// fold merges every fork's observations into r.
func (r *recorder) fold() {
	for _, f := range r.forks {
		r.lat = append(r.lat, f.lat...)
		r.conv = append(r.conv, f.conv...)
		r.execNs += f.execNs
		r.waitNs += f.waitNs
		r.errored += f.errored
		if f.lateMaxNs > r.lateMaxNs {
			r.lateMaxNs = f.lateMaxNs
		}
		if r.spans != nil {
			r.spans.absorb(f.spans)
		}
	}
	r.forks = nil
}

func (r *recorder) inWindow(t time.Duration) bool {
	if r.parent != nil {
		r = r.parent
	}
	return t >= r.w0 && t < r.w1
}

// commit records one acknowledged operation: it started at start, its
// execution (the part before it waits on the log) ended at execEnd and
// its durable acknowledgement arrived at ack. Traced runs record the two
// phases as spans under one operation id.
func (r *recorder) commit(start, execEnd, ack time.Duration) {
	if !r.inWindow(ack) {
		return
	}
	r.lat = append(r.lat, int64(ack-start))
	r.execNs += int64(execEnd - start)
	r.waitNs += int64(ack - execEnd)
	if r.spans != nil {
		op := r.spans.op("commit", start, ack)
		r.spans.child(op, "tpcc.exec", start, execEnd)
		r.spans.child(op, "wal.durable_wait", execEnd, ack)
	}
}

// appendOp records one acknowledged open-loop append: due on the
// generator's schedule at due, issued at start, on the wire at written,
// durable at ack. Its latency counts from due.
func (r *recorder) appendOp(due, start, written, ack time.Duration) {
	if !r.inWindow(ack) {
		return
	}
	r.lat = append(r.lat, int64(ack-due))
	if r.spans != nil {
		op := r.spans.op("commit", due, ack)
		r.spans.child(op, "gen.late", due, start)
		r.spans.child(op, "xapi.pwrite", start, written)
		r.spans.child(op, "xapi.fsync", written, ack)
	}
}

// fail records an operation that returned an error at time at.
func (r *recorder) fail(at time.Duration) {
	if r.inWindow(at) {
		r.errored++
	}
}

// convOp records one conventional-side command (or pager store call).
func (r *recorder) convOp(name string, start, end time.Duration) {
	if !r.inWindow(end) {
		return
	}
	r.conv = append(r.conv, int64(end-start))
	if r.spans != nil {
		r.spans.op(name, start, end)
	}
}

// late records how far behind its schedule an open-loop generator ran.
func (r *recorder) late(d time.Duration) {
	if int64(d) > r.lateMaxNs {
		r.lateMaxNs = int64(d)
	}
}

// quantile returns the exact q-quantile (nearest rank) of sorted samples.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// repResult is one repetition's measurements.
type repResult struct {
	virt      metrics // every virtual-clock metric, end-to-end and per-layer
	host      metrics // every host-clock metric except the host shares
	shares    metrics // *.host_share and runtime.gc_share (traced repetition)
	attempted int64
	failed    int64
	wallS     float64 // wall time of the timed window
	sizes     string
}

// extraSetups is how many more times a run sets a workload up, beyond its
// repetitions, only to time it: set-up takes 15 to 200 ms, too little for
// the median of three to be steady, and the driver's contract asks for
// several set-ups per run.
const extraSetups = 4

// timeSetup builds and discards one topology and returns how long the
// build took.
func timeSetup(w workload, cfg config) (float64, error) {
	debug.FreeOSMemory()
	t0 := time.Now()
	inst, err := w.build(cfg, newRecorder(false))
	if err != nil {
		return 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	s := time.Since(t0).Seconds()
	inst.close()
	return s, nil
}

// runRep runs one repetition of w: set-up, warm-up, the timed window,
// settle, then the crash and recovery check.
func runRep(w workload, cfg config, traced bool) (*repResult, error) {
	warm, window := w.warmup, time.Duration(float64(w.window)*cfg.scale)
	rec := newRecorder(traced)

	// Every repetition starts from a collected heap whose free pages have
	// gone back to the operating system, as a fresh process would: set-up
	// is mostly allocation, and what the previous repetition (or the
	// previous workload, under -selfcheck) left behind otherwise decides
	// how fast it is.
	debug.FreeOSMemory()
	t0 := time.Now()
	inst, err := w.build(cfg, rec)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	setupS := time.Since(t0).Seconds()

	base := inst.now()
	rec.w0, rec.w1 = base+warm, base+warm+window
	inst.runUntil(rec.w0)

	from, typed0, ev0 := newSnapView(inst.snapshot()), inst.typed(), inst.events()
	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("%s: cpu profile: %w", w.name, err)
		}
	}
	t1 := time.Now()
	inst.runUntil(rec.w1)
	wallS := time.Since(t1).Seconds()
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	prim, all := inst.devices()
	d := &obsDelta{
		from: from, to: newSnapView(inst.snapshot()),
		typed0: typed0, typed1: inst.typed(),
		windowNs:  float64(window),
		primaries: prim, allDevices: all,
	}
	events := inst.events() - ev0

	inst.stop()
	inst.runUntil(rec.w1 + w.settle)
	runtime.GC()
	var mg runtime.MemStats
	runtime.ReadMemStats(&mg)

	replayFrac, cerr := inst.check()
	if cerr != nil {
		return nil, fmt.Errorf("%s: correctness check: %w", w.name, cerr)
	}

	rec.fold()
	res := &repResult{virt: metrics{}, host: metrics{}, wallS: wallS, sizes: inst.sizes()}
	commits := float64(len(rec.lat))
	res.attempted = int64(len(rec.lat)) + rec.errored
	res.failed = rec.errored
	if commits == 0 {
		return nil, fmt.Errorf("%s: no operation was acknowledged in the window", w.name)
	}
	sort.Slice(rec.lat, func(i, j int) bool { return rec.lat[i] < rec.lat[j] })
	sort.Slice(rec.conv, func(i, j int) bool { return rec.conv[i] < rec.conv[j] })
	vs := window.Seconds()

	v := res.virt
	v["commit_p50_us"] = quantile(rec.lat, 0.50) * usPerNs
	v["commit_p99_us"] = quantile(rec.lat, 0.99) * usPerNs
	v["kcommits_per_vs"] = commits / vs / 1e3
	v["nand_bytes_per_user_byte"] = ratio(d.nandBytes(inst.pageSize()), inst.userBytes(d))
	v["recovery_replay_frac"] = replayFrac
	v["conv_p99_us"] = quantile(rec.conv, 0.99) * usPerNs
	v["nvme.conv_samples"] = float64(len(rec.conv))
	v["bench.commit_samples"] = commits
	v["bench.gen_late_us_max"] = float64(rec.lateMaxNs) * usPerNs
	v["sim.events"] = float64(events)
	v["sim.events_per_commit"] = float64(events) / commits
	v["tpcc.exec_us_mean"] = float64(rec.execNs) / commits * usPerNs
	v["wal.durable_wait_us_mean"] = float64(rec.waitNs) / commits * usPerNs
	inst.layers(d, v)

	h := res.host
	h["sim_wall_s_per_vs"] = wallS / vs
	h["allocs_per_commit"] = float64(m1.Mallocs-m0.Mallocs) / commits
	h["live_heap_mb"] = float64(mg.HeapInuse) / (1 << 20)
	h["setup_s"] = setupS
	h["sim.events_per_sec"] = float64(events) / wallS
	h["sim.ns_per_event"] = wallS * 1e9 / float64(events)

	if traced {
		if err := rec.spans.verify(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := rec.spans.write(cfg.outDir, w.name); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.shares, err = hostShares(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return res, nil
}

// runResult is one run of a workload: reps repetitions, plus one traced
// repetition when tracing is on.
type runResult struct {
	workload  string
	sizes     string
	endToEnd  metrics
	perLayer  metrics // nil unless traced
	attempted int64
	failed    int64
	problems  []string // determinism and correctness failures
}

// runWorkload executes one run. Virtual metrics must be identical across
// the repetitions (a free determinism check); host metrics are the median
// over the untraced repetitions.
func runWorkload(w workload, cfg config, reps int, trace bool) (*runResult, error) {
	out := &runResult{workload: w.name, endToEnd: metrics{}}
	var all []*repResult
	for i := 0; i < reps; i++ {
		r, err := runRep(w, cfg, false)
		if err != nil {
			return nil, err
		}
		all = append(all, r)
	}
	var traced *repResult
	if trace {
		r, err := runRep(w, cfg, true)
		if err != nil {
			return nil, err
		}
		traced = r
	}

	first := all[0]
	check := append([]*repResult(nil), all[1:]...)
	if traced != nil {
		check = append(check, traced)
	}
	for i, r := range check {
		for _, name := range first.virt.sortedNames() {
			if r.virt[name] != first.virt[name] {
				out.problems = append(out.problems, fmt.Sprintf("virtual metric %s differs between repetitions: %v vs %v (repetition %d)",
					name, first.virt[name], r.virt[name], i+1))
			}
		}
		if r.attempted != first.attempted || r.failed != first.failed {
			out.problems = append(out.problems, fmt.Sprintf("attempted/failed differ between repetitions: %d/%d vs %d/%d",
				first.attempted, first.failed, r.attempted, r.failed))
		}
	}
	out.attempted, out.failed, out.sizes = first.attempted, first.failed, first.sizes

	hostMedian := func(name string) float64 {
		vals := make([]float64, len(all))
		for i, r := range all {
			vals[i] = r.host[name]
		}
		return median(vals)
	}
	setups := make([]float64, 0, len(all)+extraSetups)
	for _, r := range all {
		setups = append(setups, r.host["setup_s"])
	}
	for i := 0; i < extraSetups; i++ {
		s, err := timeSetup(w, cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	for _, def := range endToEnd {
		if def.clock == "virtual" {
			out.endToEnd[def.name] = first.virt[def.name]
		} else {
			out.endToEnd[def.name] = hostMedian(def.name)
		}
	}
	// The live heap is read once, after the last repetition's window, as
	// the heap a long session settles at.
	out.endToEnd["live_heap_mb"] = all[len(all)-1].host["live_heap_mb"]
	out.endToEnd["setup_s"] = median(setups)

	if traced != nil {
		pl := metrics{}
		for _, def := range perLayer {
			share, isShare := traced.shares[def.name]
			switch {
			case def.clock == "virtual":
				pl[def.name] = first.virt[def.name]
			case isShare:
				pl[def.name] = share
			default:
				pl[def.name] = hostMedian(def.name)
			}
		}
		walls := make([]float64, len(all))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range all {
			walls[i] = r.wallS
			lo, hi = math.Min(lo, r.wallS), math.Max(hi, r.wallS)
		}
		pl["bench.trace_overhead_frac"] = traced.wallS/median(walls) - 1
		pl["bench.reps_spread_frac"] = (hi - lo) / median(walls)
		out.perLayer = pl
	}
	return out, nil
}
