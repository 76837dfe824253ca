package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"xssd/internal/core"
	"xssd/internal/obs"
	"xssd/internal/pm"
	"xssd/internal/sched"
)

func TestTablePrinting(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"col-a", "b"},
	}
	tab.Add("1", "longer-cell")
	tab.Add("22", "x")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"=== demo ===", "a note", "col-a", "longer-cell", "-----"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := Run("fig99", new(bytes.Buffer)); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentNamesRoundTrip(t *testing.T) {
	// Every listed name must be dispatchable (checked without running the
	// heavy ones: only validate the error path is about unknown names).
	for _, name := range Experiments {
		if name == "" {
			t.Fatal("empty experiment name")
		}
	}
}

// Directional smoke checks on single experiment cells (fast parameters).

func TestFig10CellWCBeatsUCDirectionally(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short mode")
	}
	wc := Fig10Cell(pm.SRAMSpec, false, 64)
	uc := Fig10Cell(pm.SRAMSpec, true, 64)
	if wc <= uc {
		t.Fatalf("WC %.0f <= UC %.0f MB/s", wc/1e6, uc/1e6)
	}
}

func TestFig11CellQueueEffect(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short mode")
	}
	latSmall, thrSmall := Fig11Cell(4<<10, 64<<10)
	latBig, thrBig := Fig11Cell(32<<10, 64<<10)
	if latBig >= latSmall {
		t.Fatalf("32KB queue latency %v not better than 4KB %v", latBig, latSmall)
	}
	if thrBig <= thrSmall {
		t.Fatalf("32KB queue throughput %.0f not better than 4KB %.0f", thrBig, thrSmall)
	}
}

func TestFig13CellVarianceGrowsWithPeriod(t *testing.T) {
	fast, _ := Fig13Cell(400 * time.Nanosecond)
	slow, _ := Fig13Cell(1600 * time.Nanosecond)
	if fast.N == 0 || slow.N == 0 {
		t.Fatal("no samples collected")
	}
	if iqr(slow) <= iqr(fast) {
		t.Fatalf("IQR at 1.6µs (%v) not larger than at 0.4µs (%v)", iqr(slow), iqr(fast))
	}
}

func TestFig13BandwidthShareInverseToPeriod(t *testing.T) {
	_, fast := Fig13Cell(400 * time.Nanosecond)
	_, slow := Fig13Cell(1600 * time.Nanosecond)
	if fast <= slow {
		t.Fatalf("update bandwidth at 0.4µs (%.2f%%) not above 1.6µs (%.2f%%)", fast, slow)
	}
	if fast < 1.5 || fast > 3.5 {
		t.Fatalf("update bandwidth at 0.4µs = %.2f%%, want near the paper's 2.35%%", fast)
	}
}

func iqr(c obs.Candlestick) time.Duration { return c.P75 - c.P25 }

// TestAblationSchemeCostOrder: with two secondaries, lazy acknowledges on
// local persistence, eager once both replicas one hop away have persisted,
// and chain once the tail two hops away has, so the p50s are strictly
// ordered.
func TestAblationSchemeCostOrder(t *testing.T) {
	p50 := map[core.ReplicationScheme]time.Duration{}
	for _, scheme := range []core.ReplicationScheme{core.Lazy, core.Eager, core.Chain} {
		c, err := ablationSchemeCell(scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if c.N == 0 {
			t.Fatalf("%s: no samples", scheme)
		}
		p50[scheme] = c.P50
	}
	if !(p50[core.Lazy] < p50[core.Eager] && p50[core.Eager] < p50[core.Chain]) {
		t.Fatalf("p50 lazy %v, eager %v, chain %v; want lazy < eager < chain",
			p50[core.Lazy], p50[core.Eager], p50[core.Chain])
	}
}

func TestFig09CellNoLogFastest(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, noLog := Fig09Cell("NoLog", 2)
	latNVMe, nvme := Fig09Cell("NVMe", 2)
	if noLog <= 0 || nvme <= 0 {
		t.Fatalf("throughputs: nolog %.1f nvme %.1f", noLog, nvme)
	}
	if noLog < nvme {
		t.Fatalf("NoLog (%.1f ktps) slower than NVMe (%.1f ktps)", noLog, nvme)
	}
	if latNVMe <= 0 {
		t.Fatal("NVMe latency not measured")
	}
}

func TestFig12CellConventionalPriorityProtects(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	conv, _ := Fig12Cell(sched.ConventionalPriority, 0.60)
	if conv < 0.42 {
		t.Fatalf("conventional priority achieved only %.0f%%, want ~50%%", conv*100)
	}
}

// TestPargroupReplNamesEveryBridge: the repl3 topology names each device
// apart, so every bridge of its full mesh — three devices, six directed
// links, each on its sender's member — registers an ntb/<from>-><to>
// series of its own instead of sharing one with a sibling.
func TestPargroupReplNamesEveryBridge(t *testing.T) {
	st := pargroupRepl(1)
	defer st.Close()
	seen := map[string]bool{}
	for _, env := range st.Envs() {
		for _, c := range obs.For(env).Snapshot().Counters {
			if strings.HasPrefix(c.Name, "ntb/") && strings.HasSuffix(c.Name, "/chunks") {
				if seen[c.Name] {
					t.Errorf("two members register %s", c.Name)
				}
				seen[c.Name] = true
			}
		}
	}
	if n := len(st.Devices); len(seen) != n*(n-1) {
		t.Errorf("%d ntb series for %d devices, want one per bridge (%d): %v", len(seen), n, n*(n-1), seen)
	}
}
