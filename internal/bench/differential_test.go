package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"xssd/internal/core"
	"xssd/internal/tpcc"
	"xssd/internal/villars"
)

// The figure-cell differential suite: every cell must produce the same
// measurements, metrics JSON, and event count at every worker count. (That
// a lone-member group is the bare Env, event for event, is checked where
// both still exist: sim.TestGroupSingleMemberMatchesEnv and
// villars.TestLoneMemberGroupMatchesBareEnv.)

type cellRun struct {
	events  int64
	metrics []byte
	values  []float64
}

// runCellDifferential executes cell under each mode and returns the runs.
func runCellDifferential(t *testing.T, modes []int, cell func() []float64) []cellRun {
	t.Helper()
	prev := engineWorkers
	defer SetEngineWorkers(prev)
	out := make([]cellRun, 0, len(modes))
	for _, mode := range modes {
		SetEngineWorkers(mode)
		cap := StartCapture()
		values := cell()
		StopCapture()
		var buf bytes.Buffer
		if err := cap.WriteJSON(&buf); err != nil {
			t.Fatalf("mode %d: metrics: %v", mode, err)
		}
		out = append(out, cellRun{events: LastCellEvents(), metrics: buf.Bytes(), values: values})
	}
	return out
}

func checkRunsIdentical(t *testing.T, name string, modes []int, runs []cellRun) {
	t.Helper()
	for i := 1; i < len(runs); i++ {
		if runs[i].events != runs[0].events {
			t.Errorf("%s: mode %d dispatched %d events, mode %d %d",
				name, modes[i], runs[i].events, modes[0], runs[0].events)
		}
		if !bytes.Equal(runs[i].metrics, runs[0].metrics) {
			t.Errorf("%s: mode %d metrics JSON diverges from mode %d", name, modes[i], modes[0])
		}
		for j := range runs[i].values {
			if runs[i].values[j] != runs[0].values[j] {
				t.Errorf("%s: mode %d measurement[%d] = %v, mode %d %v",
					name, modes[i], j, runs[i].values[j], modes[0], runs[0].values[j])
			}
		}
	}
}

// TestFig13WorkerCountInvariant runs the genuinely multi-member figure with
// the secondary on its own member: all pair traffic crosses at barriers, so
// the executor count must not be observable.
func TestFig13WorkerCountInvariant(t *testing.T) {
	modes := []int{0, 1, 2, 8}
	runs := runCellDifferential(t, modes, func() []float64 {
		c, share := Fig13Cell(400 * time.Nanosecond)
		return []float64{float64(c.Min), float64(c.P50), float64(c.Max), float64(c.N), share}
	})
	checkRunsIdentical(t, "fig13", modes, runs)
	for _, r := range runs {
		if r.values[3] == 0 {
			t.Fatal("fig13 under the group runner collected no samples")
		}
	}
}

// TestPargroupCellWorkerParity pins the contract Compare enforces on the
// /swN perf twins: identical topology, identical events, any executor
// count.
func TestPargroupCellWorkerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short mode")
	}
	e1 := PargroupCell(3, 1)
	e2 := PargroupCell(3, 2)
	if e1 != e2 {
		t.Fatalf("pargroup events drift across workers: %d vs %d", e1, e2)
	}
	if e1 == 0 {
		t.Fatal("pargroup dispatched no events")
	}
}

// TestPargroupReplCellWorkerParity is the same contract for the repl3
// twins, whose members exchange NTB traffic across every barrier: events
// and barrier count are equal at any executor count, at two executors the
// quanta really are handed to a helper, and the NTB traffic between the
// members stays off the allocator.
func TestPargroupReplCellWorkerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short mode")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e1 := PargroupReplCell(1)
	runtime.ReadMemStats(&after)
	s1 := LastGroupStats()
	// Bring-up included: a chunk crossing members rides a recycled slot, so
	// the cell allocates per device built, not per line mirrored (it read
	// 0.34 allocs/event while every chunk took a private copy and a closure).
	if perEvent := float64(after.Mallocs-before.Mallocs) / float64(e1); perEvent >= 0.02 {
		t.Errorf("repl3 allocates %.3f objects per event, want < 0.02", perEvent)
	}
	e2 := PargroupReplCell(2)
	s2 := LastGroupStats()
	if e1 != e2 || s1.Quanta != s2.Quanta {
		t.Fatalf("repl3 drifts across workers: %d events in %d quanta vs %d in %d", e1, s1.Quanta, e2, s2.Quanta)
	}
	if e1 == 0 {
		t.Fatal("repl3 dispatched no events")
	}
	if s1.Shared != 0 {
		t.Errorf("serial runner shared %d quanta", s1.Shared)
	}
	if min(runtime.GOMAXPROCS(0), runtime.NumCPU()) >= 2 && s2.Shared < s2.Quanta*9/10 {
		t.Errorf("two executors shared %d of %d quanta; every member should be active in nearly all", s2.Shared, s2.Quanta)
	}
}

// BenchmarkPargroup prints what the executor pool buys on the host that
// runs it (CI's "Go benchmarks" step): the suite's two pargroup
// topologies at 1, 2 and 4 executors. Information, not a gate — read sw2
// and sw4 against the sw1 of the same run.
func BenchmarkPargroup(b *testing.B) {
	for _, topo := range []struct {
		name string
		run  func(simWorkers int) int64
	}{
		{fmt.Sprintf("d%d", pargroupDevices), func(sw int) int64 { return PargroupCell(pargroupDevices, sw) }},
		{"repl3", PargroupReplCell},
	} {
		for _, sw := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/sw%d", topo.name, sw), func(b *testing.B) {
				var events int64
				for i := 0; i < b.N; i++ {
					events += topo.run(sw)
				}
				b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// TestCompareFlagsWorkerTwinDrift checks that Compare hard-fails when two
// /swN twins disagree on events, whatever their speed.
func TestCompareFlagsWorkerTwinDrift(t *testing.T) {
	baseline := []PerfResult{{Bench: "pargroup/d8/sw1", Events: 100, EventsPerSec: 1}}
	current := []PerfResult{
		{Bench: "pargroup/d8/sw1", Events: 100, EventsPerSec: 1},
		{Bench: "pargroup/d8/sw8", Events: 101, EventsPerSec: 1},
	}
	_, err := Compare(baseline, current)
	if err == nil {
		t.Fatal("Compare accepted serial/parallel event drift")
	}
	if !strings.Contains(err.Error(), "drift") {
		t.Fatalf("unexpected error: %v", err)
	}
	current[1].Events = 100
	if _, err := Compare(baseline, current); err != nil {
		t.Fatalf("Compare rejected matching twins: %v", err)
	}
}

// TestCompareWallFloor checks the throughput tolerance only gates cells
// whose baseline run lasted past compareWallFloorNS; shorter cells are
// noise-bound and only their event counts are compared.
func TestCompareWallFloor(t *testing.T) {
	short := []PerfResult{{Bench: "c", WallNS: compareWallFloorNS - 1, Events: 10, EventsPerSec: 1000}}
	long := []PerfResult{{Bench: "c", WallNS: compareWallFloorNS, Events: 10, EventsPerSec: 1000}}
	slow := []PerfResult{{Bench: "c", WallNS: compareWallFloorNS, Events: 10, EventsPerSec: 100}}
	if _, err := Compare(short, slow); err != nil {
		t.Fatalf("Compare gated throughput on a sub-floor cell: %v", err)
	}
	if _, err := Compare(long, slow); err == nil {
		t.Fatal("Compare ignored a real regression on a cell past the floor")
	}
	slow[0].Events = 11
	if _, err := Compare(short, slow); err == nil {
		t.Fatal("Compare ignored an event-count drift on a sub-floor cell")
	}
}

// TestCompareGatesAllocs checks the allocation gate: growth past 5 % of
// the baseline's count fails whatever the cell's duration, anything up to
// it passes, and a baseline that recorded no count gates nothing. A count
// more than 10 % under the baseline passes with a warning to re-pin it.
func TestCompareGatesAllocs(t *testing.T) {
	for _, tc := range []struct {
		name          string
		base, current int64
		fails, warns  bool
	}{
		{"+6% fails", 100_000, 106_000, true, false},
		{"+4% passes", 100_000, 104_000, false, false},
		{"exactly +5% passes", 100_000, 105_000, false, false},
		{"-10% passes quietly", 100_000, 90_000, false, false},
		{"-11% passes with a warning", 100_000, 89_000, false, true},
		{"baseline without allocs is skipped", 0, 1_000_000, false, false},
	} {
		baseline := []PerfResult{{Bench: "c", Events: 10, Allocs: tc.base}}
		current := []PerfResult{{Bench: "c", Events: 10, Allocs: tc.current}}
		warnings, err := Compare(baseline, current)
		if tc.fails != (err != nil) {
			t.Errorf("%s: Compare(%d -> %d allocs) = %v", tc.name, tc.base, tc.current, err)
		}
		if err != nil && !strings.Contains(err.Error(), "allocs") {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if tc.warns != (len(warnings) > 0) || tc.warns && !strings.Contains(warnings[0], "re-pin") {
			t.Errorf("%s: Compare(%d -> %d allocs) warned %q", tc.name, tc.base, tc.current, warnings)
		}
	}
}

// TestCompareFlagsQuantileDrift checks that Compare demands exact
// quantile equality on latency-suite cells (virtual-time quantiles are
// deterministic) while leaving quantile-free perf cells alone.
func TestCompareFlagsQuantileDrift(t *testing.T) {
	baseline := []PerfResult{{Bench: "lat/nvme/q4/d8/c1", Events: 100, P50NS: 1000, P99NS: 2000, P999NS: 3000}}
	current := []PerfResult{{Bench: "lat/nvme/q4/d8/c1", Events: 100, P50NS: 1000, P99NS: 2001, P999NS: 3000}}
	_, err := Compare(baseline, current)
	if err == nil {
		t.Fatal("Compare accepted a p99 drift on a latency cell")
	}
	if !strings.Contains(err.Error(), "virtual-time drift") {
		t.Fatalf("unexpected error: %v", err)
	}
	current[0].P99NS = 2000
	if _, err := Compare(baseline, current); err != nil {
		t.Fatalf("Compare rejected equal quantiles: %v", err)
	}
	// A perf-suite cell (no baseline quantiles) ignores the new run's.
	noQ := []PerfResult{{Bench: "fig9", Events: 50}}
	withQ := []PerfResult{{Bench: "fig9", Events: 50, P50NS: 7}}
	if _, err := Compare(noQ, withQ); err != nil {
		t.Fatalf("Compare gated quantiles on a quantile-free baseline: %v", err)
	}
}

// TestCompareFlagsNandPageDrift checks that Compare holds a cell that
// recorded a flash-page count or a device page-read count to exactly that
// count — in either direction, it is a policy change — and gates nothing
// on a baseline without one.
func TestCompareFlagsNandPageDrift(t *testing.T) {
	for _, tc := range []struct {
		bench, complaint string
		with             func(n int64) PerfResult
	}{
		{"destage/thinlog", "flash pages", func(n int64) PerfResult { return PerfResult{Events: 100, NandPages: n} }},
		{"paged/tpcc", "pages from the device", func(n int64) PerfResult { return PerfResult{Events: 100, Commits: 7, PageReads: n} }},
	} {
		cell := func(n int64) []PerfResult {
			r := tc.with(n)
			r.Bench = tc.bench
			return []PerfResult{r}
		}
		for _, n := range []int64{254, 1069} {
			if _, err := Compare(cell(255), cell(n)); err == nil || !strings.Contains(err.Error(), tc.complaint) {
				t.Fatalf("%s: Compare(255 -> %d) = %v", tc.bench, n, err)
			}
		}
		if _, err := Compare(cell(255), cell(255)); err != nil {
			t.Fatalf("%s: Compare rejected an equal count: %v", tc.bench, err)
		}
		if _, err := Compare(cell(0), cell(9)); err != nil {
			t.Fatalf("%s: Compare gated a count its baseline lacks: %v", tc.bench, err)
		}
	}
}

// TestThinLogCellPadsPerBoundNotPerLine pins the reader cell's point: a
// terminal that persists a record every half millisecond under a 1 ms bound,
// its log followed by a tail reader, costs about a page per bound interval.
// With the bound ageing the ring head the same cell programmed 1 069 pages.
func TestThinLogCellPadsPerBoundNotPerLine(t *testing.T) {
	m := ThinLogReaderCell()
	if most := int64(thinLogWindow/thinLogBound) + 16; m.NandPages == 0 || m.NandPages > most {
		t.Fatalf("%d flash pages in %v under a %v bound, want at most %d", m.NandPages, thinLogWindow, thinLogBound, most)
	}
	if m.Lat.N == 0 || m.Lat.Max > int64(5*thinLogBound) {
		t.Fatalf("reader lag %+v: want reads, none later than five bounds", m.Lat)
	}
	if again := ThinLogReaderCell(); again != m {
		t.Fatalf("cell does not repeat: %+v then %+v", m, again)
	}
}

// TestThinLogCellFillsPagesWithoutReader pins the reader-less cell's: with
// nobody reading the log, the trickle fills whole pages and only the
// stream's quiet stretches pad one, so the pages cost at most 5 % more than
// the payload would in whole pages, and well under half the reader cell's.
func TestThinLogCellFillsPagesWithoutReader(t *testing.T) {
	m, st := thinLogCell(false)
	perPage := int64(4<<10) - villars.PageHeaderLen
	if whole := (st.PayloadBytes + perPage - 1) / perPage; st.Pages == 0 || st.Pages*100 > whole*105 {
		t.Fatalf("%d destage pages (%d padded) for %d payload bytes, want at most 5%% over %d whole pages",
			st.Pages, st.PartialPages, st.PayloadBytes, whole)
	}
	if r := ThinLogReaderCell(); 2*m.NandPages >= r.NandPages {
		t.Fatalf("%d flash pages without a reader, %d with one; want under half", m.NandPages, r.NandPages)
	}
	if again := ThinLogCell(); again != m {
		t.Fatalf("cell does not repeat: %+v then %+v", m, again)
	}
}

// TestPagedCellShape pins what the paged/tpcc cell claims to be: a pool a
// quarter of the loaded tree, misses that reach the device, commits, and
// an exact repeat.
func TestPagedCellShape(t *testing.T) {
	if testing.Short() {
		t.Skip("two seconds of paged TPC-C, twice; skipped in -short mode")
	}
	m, loaded, err := pagedTPCCCell()
	if err != nil {
		t.Fatal(err)
	}
	if quarter := loaded / 4; pagedCellPool < quarter*9/10 || pagedCellPool > quarter*11/10 {
		t.Errorf("pool of %d pages against %d loaded, want a quarter (%d) within 10%%", pagedCellPool, loaded, quarter)
	}
	if m.Commits == 0 || m.PageReads == 0 {
		t.Errorf("%d commits, %d device page reads; the cell must do both", m.Commits, m.PageReads)
	}
	if again, _, err := pagedTPCCCell(); err != nil || again != m {
		t.Fatalf("cell does not repeat: %+v then %+v (%v)", m, again, err)
	}
}

// TestGroupedCellsTouchNoStrayMember holds the multi-member perf and shard
// cells to the determinism contract at run time: after bring-up no member
// schedules an event or occupies a Link on another except through PostTo
// and the NTB slot ring. Each cell runs on the serial executor, which
// counts such touches (sim.GroupStats.Stray).
func TestGroupedCellsTouchNoStrayMember(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short mode")
	}
	SetEngineWorkers(1)
	defer SetEngineWorkers(0)
	for _, tc := range []struct {
		cell string
		run  func() error
	}{
		{"fig13/400ns", func() error { Fig13Cell(400 * time.Nanosecond); return nil }},
		{"ablation-scheme/chain", func() error { _, err := ablationSchemeCell(core.Chain); return err }},
		{"pargroup/d8/sw1", func() error { PargroupCell(pargroupDevices, 1); return nil }},
		{"pargroup/repl3/sw1", func() error { PargroupReplCell(1); return nil }},
		{"shard/s2", func() error { _, err := ShardBenchCell("shard/s2", 2, 1, tpcc.SpecMix()); return err }},
		{"shard/s4/remote50", func() error {
			_, err := ShardBenchCell("shard/s4/remote50", 4, 1, tpcc.RemoteMix{LinePct: 5, PayPct: 50})
			return err
		}},
	} {
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.cell, err)
		}
		if st := LastGroupStats(); st.Stray != 0 {
			t.Errorf("%s: %d stray touches, want 0", tc.cell, st.Stray)
		}
	}
}
