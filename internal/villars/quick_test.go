package villars

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"xssd/internal/core"
	"xssd/internal/fault"
	"xssd/internal/nvme"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/sim"
)

// The multi-queue host interface's property test: for a RANDOM queue
// shape (pair count, in-flight window, coalescing op count) and a
// RANDOM fault plan, a fixed async write workload must end with
//
//   - per-queue completion sequence numbers equal to the per-queue
//     completion count (Post stamps 1,2,3,... per CQ, so equality means
//     the sequence was monotone with no lost or duplicated completions);
//   - every submission completed and nothing in flight;
//
// and the whole history — dispatched event count plus the canonical
// metrics snapshot — must be byte-identical when the identical scenario
// runs under sim.Group with 1 and with 8 quantum executors.

// quickQueueShape is one sampled point of the queue-configuration space.
type quickQueueShape struct {
	pairs       int
	depth       int // the submitter's in-flight window
	coalesceOps int
}

func shapeFrom(pb, db, cb uint8) quickQueueShape {
	s := quickQueueShape{pairs: 1 + int(pb)%8, depth: 1 + int(db)%32}
	if cb%3 != 0 { // two thirds of samples coalesce
		s.coalesceOps = 2 + int(cb)%7
	}
	return s
}

const (
	quickQueueOps      = 120 // submissions per queue
	quickQueueDeadline = 80 * time.Millisecond
)

// queueHistory runs the canonical workload for one shape under a
// sim.Group with the given worker count and returns (events, snapshot).
// Invariant violations are reported through t.Errorf with the scenario
// attached.
func queueHistory(t *testing.T, seed int64, shape quickQueueShape, plan *fault.Plan, workers int) (int64, []byte) {
	t.Helper()
	g := sim.NewGroup(sim.GroupConfig{Workers: workers, StartInline: true})
	defer g.Close()
	env := g.NewEnv("m0", seed)
	fault.Attach(env, fault.New(env, plan))
	defer fault.Detach(env)

	cfg := testConfig("q")
	cfg.HostQueues = shape.pairs
	cfg.CoalesceOps = shape.coalesceOps
	d := New(env, cfg, pcie.NewHostMemory(1<<20))
	drv := d.HostDriver()
	drv.Observe(obs.For(env).Scope("q/nvme"))

	// One submitter per queue: a sliding window of depth tokens, sizes
	// cycling 1-4 blocks, each queue on a private wrapped LBA stripe.
	base := d.FTL().LogicalPages() / 2
	stripe := int64(96)
	for q := 0; q < shape.pairs; q++ {
		q := q
		env.Go(fmt.Sprintf("submit-%d", q), func(p *sim.Proc) {
			var window []nvme.Token
			var off int64
			for i := 0; i < quickQueueOps; i++ {
				blocks := 1 + (i+q)%4
				lba := base + int64(q)*stripe + off
				off = (off + int64(blocks)) % (stripe - 4)
				tok := drv.SubmitAsync(q, nvme.Command{Opcode: nvme.OpWrite, LBA: lba, Blocks: blocks})
				window = append(window, tok)
				if len(window) >= shape.depth {
					drv.Wait(p, window[0])
					window = window[1:]
				}
			}
			for _, tok := range window {
				drv.Wait(p, tok)
			}
		})
	}
	g.Parallelize()
	g.RunUntil(quickQueueDeadline)

	for q := 0; q < shape.pairs; q++ {
		sub, cmp, seq := drv.Submitted(q), drv.Completed(q), drv.LastSeq(q)
		if sub != quickQueueOps {
			t.Errorf("seed %d shape %+v sw%d queue %d: submitted %d, want %d", seed, shape, workers, q, sub, quickQueueOps)
		}
		if cmp != sub || drv.Inflight(q) != 0 {
			t.Errorf("seed %d shape %+v sw%d queue %d: completed %d of %d, %d in flight (lost completion?)",
				seed, shape, workers, q, cmp, sub, drv.Inflight(q))
		}
		if seq != uint64(cmp) {
			t.Errorf("seed %d shape %+v sw%d queue %d: last CQ seq %d after %d completions (dup or gap)",
				seed, shape, workers, q, seq, cmp)
		}
	}
	return g.Events(), obs.For(env).Snapshot().Encode()
}

// Property: random queue shapes under random fault plans keep the
// completion invariants, and the run's history is bit-identical between
// 1 and 8 simulation workers.
func TestQuickMultiQueueHistoryInvariant(t *testing.T) {
	prop := func(seed int64, pb, db, cb uint8) bool {
		shape := shapeFrom(pb, db, cb)
		// No crash rule: a mid-run power loss voids the every-submission-
		// completes invariant by design (the crash suite covers that path).
		plan := fault.RandomPlan(rand.New(rand.NewSource(seed)), quickQueueDeadline, false, "")
		ev1, snap1 := queueHistory(t, seed, shape, plan, 1)
		ev8, snap8 := queueHistory(t, seed, shape, plan, 8)
		if ev1 != ev8 {
			t.Errorf("seed %d shape %+v: %d events under sw1, %d under sw8 (serial/parallel drift)",
				seed, shape, ev1, ev8)
			return false
		}
		if !bytes.Equal(snap1, snap8) {
			t.Errorf("seed %d shape %+v: metrics snapshots differ between sw1 and sw8", seed, shape)
			return false
		}
		return !t.Failed()
	}
	n := 8
	if testing.Short() {
		n = 3
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(1911))}); err != nil {
		t.Fatal(err)
	}
}

// The destage latency bound's property tests: for a RANDOM trickle of lines
// (sizes, gaps, the bound itself, the flash program time, now and then a
// burst of a page or more, an Alloc/Free pin, a power loss at the end),
//
//   - no padded page is carved while its first byte — the oldest eligible
//     byte not yet in a page — is younger than the bound, except after
//     power loss;
//   - with a tail reader polling the destaged-stream register, every page
//     is carved within the bound of its first byte becoming eligible, plus
//     whatever part of the wait the pipeline was full, plus the
//     backing-bus time of a carve or two;
//   - with no reader, no padded page is carved while bytes keep becoming
//     eligible within the bound, and every page is carved within the bound
//     after the stream goes quiet (or at power loss), with the same slack.
//
// Eligibility is observed from outside the destage module: a byte is
// eligible from the first instant destageFloor() is past it.

// tricklePage is one carved page as the observers saw it.
type tricklePage struct {
	off, n  int64
	carved  time.Duration // the instant the page entered the pipeline
	retired time.Duration
}

// trickleRun feeds one random schedule to a device and returns what the
// property needs. floorAt[i] is the first instant the floor was past
// floorOff[i]; both rise.
type trickleRun struct {
	bound     time.Duration
	maxPage   int64
	inflight  int
	total     int64
	powerLost time.Duration // 0: never
	floorAt   []time.Duration
	floorOff  []int64
	pages     []tricklePage
}

// runTrickle runs the schedule seed draws; with reader set, a tail reader
// polls RegDestagedStream through the control region every 5 µs, as
// XPread does while it waits.
func runTrickle(t *testing.T, seed int64, reader bool) trickleRun {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	env := sim.NewEnv(seed)
	defer env.Close()
	cfg := testConfig("q")
	cfg.DestageLatencyBound = time.Duration(50+rng.Intn(350)) * time.Microsecond
	cfg.Timing.TProg = []time.Duration{20, 200, 600}[rng.Intn(3)] * time.Microsecond
	d := New(env, cfg, pcie.NewHostMemory(1<<20))
	tr := d.EnableTracing(1 << 14)
	cmb, dst := d.CMB(), d.Destage()
	run := trickleRun{bound: cfg.DestageLatencyBound, maxPage: int64(dst.maxPayload()), inflight: dst.maxInflight()}

	noteFloor := func() {
		if f := cmb.destageFloor(); len(run.floorOff) == 0 || f > run.floorOff[len(run.floorOff)-1] {
			run.floorAt = append(run.floorAt, env.Now())
			run.floorOff = append(run.floorOff, f)
		}
	}
	env.Go("floor-watch", func(p *sim.Proc) {
		for {
			p.Wait(cmb.CreditChanged)
			noteFloor()
		}
	})
	// A page sits in the pipeline for at least its program time, so a scan
	// every half of that sees each one; its offset is the ring head plus
	// the pages ahead of it.
	carvedAt := map[int64]time.Duration{}
	env.Go("pipeline-watch", func(p *sim.Proc) {
		for {
			off := cmb.ring.Head()
			for _, e := range dst.inflight.Items() {
				if _, seen := carvedAt[off]; !seen {
					carvedAt[off] = e.carvedAt
				}
				off += e.n
			}
			p.Sleep(cfg.Timing.TProg / 2)
		}
	})

	if reader {
		ctl := pcie.NewMMIO(d.ControlRegion(), pcie.Uncached)
		env.Go("tail-reader", func(p *sim.Proc) {
			for {
				readReg(p, ctl, core.RegDestagedStream)
				p.Sleep(5 * time.Microsecond)
			}
		})
	}

	ops := 40 + rng.Intn(120)
	pinAt, pinFor := rng.Intn(ops), 1+rng.Intn(20)
	crash := rng.Intn(3) == 0
	done := false
	env.Go("host", func(p *sim.Proc) {
		var off int64
		var pin Allocation
		pinned := false
		for i := 0; i < ops; i++ {
			n := 64 * (1 + rng.Intn(4))
			if rng.Intn(16) == 0 {
				n = int(run.maxPage) + 64*rng.Intn(8) // a burst of a page or more
			}
			for cmb.queueUsed+n > cfg.QueueSize { // the host's flow control
				p.Sleep(200 * time.Nanosecond)
			}
			cmb.MemWrite(off, make([]byte, n))
			off += int64(n)
			if rng.Intn(20) == 0 { // a quiet stretch longer than the bound
				p.Sleep(run.bound + time.Duration(rng.Intn(100))*time.Microsecond)
			} else {
				p.Sleep(time.Duration(200+rng.Intn(40000)) * time.Nanosecond)
			}
			if i == pinAt {
				// Pin the floor: the region is written back to front, the
				// stream goes on behind it, and nothing past its start is
				// eligible until the Free.
				for cmb.ring.Frontier() < off { // Alloc starts at the persisted tail
					p.Sleep(200 * time.Nanosecond)
				}
				var err error
				if pin, err = cmb.Alloc(256); err != nil {
					t.Errorf("seed %d: alloc: %v", seed, err)
					return
				}
				pinned = true
				cmb.MemWrite(pin.Start+128, make([]byte, 128))
				cmb.MemWrite(pin.Start, make([]byte, 128))
				off = pin.End
			}
			if pinned && i == pinAt+pinFor {
				cmb.Free(pin.ID)
				noteFloor()
				pinned = false
			}
		}
		if pinned {
			cmb.Free(pin.ID)
			noteFloor()
		}
		run.total = off
		if crash {
			p.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			run.powerLost = p.Now()
			d.InjectPowerLoss()
		}
		done = true
	})
	for limit := env.Now() + time.Second; !(done && dst.DestagedStream() == run.total) && env.Now() < limit; {
		env.RunUntil(env.Now() + time.Millisecond)
	}
	if got := dst.DestagedStream(); !done || got != run.total {
		t.Errorf("seed %d: destaged %d of %d bytes", seed, got, run.total)
	}
	for _, ev := range tr.Filter(obs.DestagePage) {
		off := ev.A - ev.B
		c, ok := carvedAt[off]
		if !ok {
			t.Errorf("seed %d: the page at %d was never seen in the pipeline", seed, off)
		}
		run.pages = append(run.pages, tricklePage{off: off, n: ev.B, carved: c, retired: ev.At})
	}
	return run
}

// eligibleAt returns the first instant the floor was past stream offset off.
func (r trickleRun) eligibleAt(off int64) time.Duration {
	for i, f := range r.floorOff {
		if f > off {
			return r.floorAt[i]
		}
	}
	return -1
}

// quietDeadline returns when a reader-less device owes page i, whose first
// byte became eligible at since, a carve: the first instant from the bound
// after since, and from the carve of the page before it, at which the
// stream has been quiet for the bound — the floor did not rise within it —
// and the pipeline has room, or power loss if that comes first. Quiet can
// end again while the pipeline is full, so the two are sought together.
func (r trickleRun) quietDeadline(i int, since time.Duration) time.Duration {
	t := since + r.bound
	if i > 0 {
		t = max(t, r.pages[i-1].carved)
	}
	for {
		from := t
		for i := len(r.floorAt) - 1; i >= 0; i-- {
			if at := r.floorAt[i]; at > t-r.bound && at <= t {
				t = at + r.bound
				i = len(r.floorAt) // rescan from the new instant
			}
		}
		if r.powerLost > 0 && r.powerLost < t {
			t = max(r.powerLost, since)
		}
		t = r.roomFrom(t)
		if t == from {
			return t
		}
	}
}

// roomFrom returns the first instant from t at which the pipeline is not
// full.
func (r trickleRun) roomFrom(t time.Duration) time.Duration {
	for j := r.inflight - 1; j < len(r.pages); j++ {
		if s, e := r.pages[j].carved, r.pages[j-r.inflight+1].retired; s <= t && t < e {
			t = e
		}
	}
	return t
}

// floorRoseIn reports whether the floor rose inside the open interval
// (from, to).
func (r trickleRun) floorRoseIn(from, to time.Duration) bool {
	for _, at := range r.floorAt {
		if at > from && at < to {
			return true
		}
	}
	return false
}

// fullBetween returns how much of [from, to) the pipeline was full: page j
// fills it when it enters and page j-inflight+1 frees it when it retires.
func (r trickleRun) fullBetween(from, to time.Duration) time.Duration {
	var sum time.Duration
	for j := r.inflight - 1; j < len(r.pages); j++ {
		s, e := r.pages[j].carved, r.pages[j-r.inflight+1].retired
		if s < from {
			s = from
		}
		if e > to {
			e = to
		}
		if e > s {
			sum += e - s
		}
	}
	return sum
}

// A carve reads its bytes over the backing bus, behind any drain in flight
// there, before the page enters the pipeline; so a page may be late by its
// own read, the read the loop was in when the deadline fell due, and those
// of the pages carved ahead of it since.
const busSlack = 1500 * time.Nanosecond

// checkTrickle runs the latency-bound property over seed's schedule, with
// or without a tail reader; deadlineOf gives page i's due instant from the
// run and its first byte's eligibility.
func checkTrickle(t *testing.T, seed int64, reader bool, deadlineOf func(r trickleRun, i int, since time.Duration) time.Duration) bool {
	r := runTrickle(t, seed, reader)
	for i, pg := range r.pages {
		since := r.eligibleAt(pg.off)
		if since < 0 {
			t.Errorf("seed %d: page at %d carved but never eligible", seed, pg.off)
			continue
		}
		crashed := r.powerLost > 0 && pg.carved >= r.powerLost
		if pg.n < r.maxPage && !crashed {
			if pg.carved < since+r.bound {
				t.Errorf("seed %d: padded page [%d,+%d) carved at %v, its first byte eligible only since %v (bound %v)",
					seed, pg.off, pg.n, pg.carved, since, r.bound)
			}
			// The loop decides, then reads the bytes over the bus before
			// the page enters the pipeline: lines may persist meanwhile.
			if !reader && r.floorRoseIn(pg.carved-r.bound, pg.carved-2*busSlack) {
				t.Errorf("seed %d: padded page [%d,+%d) carved at %v with no reader, the floor rising within the bound %v before it",
					seed, pg.off, pg.n, pg.carved, r.bound)
			}
		}
		deadline := deadlineOf(r, i, since)
		reads := 2
		for _, q := range r.pages[:i] {
			if q.carved >= deadline {
				reads++
			}
		}
		if late := pg.carved - deadline - r.fullBetween(deadline, pg.carved); late > time.Duration(reads)*busSlack {
			t.Errorf("seed %d: page [%d,+%d) carved at %v, %v past its deadline %v with the pipeline free",
				seed, pg.off, pg.n, pg.carved, late, deadline)
		}
	}
	return !t.Failed()
}

func quickTrickleConfig() *quick.Config {
	cfg := &quick.Config{MaxCountScale: 0.3, Rand: rand.New(rand.NewSource(22))}
	if testing.Short() {
		cfg.MaxCountScale = 0.08
	}
	return cfg
}

func TestQuickLatencyBoundAgesOldestUncarvedByte(t *testing.T) {
	prop := func(seed int64) bool {
		return checkTrickle(t, seed, true, func(r trickleRun, _ int, since time.Duration) time.Duration { return since + r.bound })
	}
	if err := quick.Check(prop, quickTrickleConfig()); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLatencyBoundWaitsForQuietWithoutReader is the reader-less twin:
// the same schedules, nobody reading the destage registers.
func TestQuickLatencyBoundWaitsForQuietWithoutReader(t *testing.T) {
	prop := func(seed int64) bool {
		return checkTrickle(t, seed, false, trickleRun.quietDeadline)
	}
	if err := quick.Check(prop, quickTrickleConfig()); err != nil {
		t.Fatal(err)
	}
}
