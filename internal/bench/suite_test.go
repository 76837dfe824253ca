package bench

import (
	"strings"
	"testing"
)

// TestBaselineCoversSuite: Compare ignores cells that only the new run
// has, so a cell added to the suite without a row in BENCH.json would go
// ungated. The baseline names every cell, in suite order, once.
func TestBaselineCoversSuite(t *testing.T) {
	baseline, err := ReadPerfFile("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	cells := SuiteCells()
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		if seen[c.Name] {
			t.Errorf("suite lists %s twice", c.Name)
		}
		seen[c.Name] = true
	}
	for i := 0; i < len(cells) || i < len(baseline); i++ {
		var cell, row string
		if i < len(cells) {
			cell = cells[i].Name
		}
		if i < len(baseline) {
			row = baseline[i].Bench
		}
		if cell != row {
			t.Errorf("position %d: suite cell %q, BENCH.json row %q", i, cell, row)
		}
	}
}

// TestVirtualDrift: every virtual-time field is held to equality where the
// expected run recorded it, an event-count drift is reported alone, and
// wall-clock fields never count.
func TestVirtualDrift(t *testing.T) {
	want := PerfResult{Bench: "c", Events: 100, P50NS: 10, P99NS: 20, P999NS: 30,
		Commits: 5, NandPages: 6, PageReads: 7, WallNS: 1000, EventsPerSec: 9, Allocs: 11}
	for _, tc := range []struct {
		name      string
		edit      func(r *PerfResult)
		complaint []string
	}{
		{"identical", func(r *PerfResult) {}, nil},
		{"wall clock and allocs are not virtual", func(r *PerfResult) { r.WallNS, r.EventsPerSec, r.Allocs = 1, 1, 1 }, nil},
		{"events", func(r *PerfResult) { r.Events, r.Commits = 101, 1 }, []string{"dispatched 101 events, expected 100"}},
		{"p50", func(r *PerfResult) { r.P50NS = 11 }, []string{"p50 expected 10ns, got 11ns"}},
		{"p99 and p999", func(r *PerfResult) { r.P99NS, r.P999NS = 21, 31 }, []string{"p99 expected", "p999 expected"}},
		{"commits", func(r *PerfResult) { r.Commits = 4 }, []string{"committed 4 transactions, expected 5"}},
		{"nand pages", func(r *PerfResult) { r.NandPages = 7 }, []string{"programmed 7 flash pages, expected 6"}},
		{"page reads", func(r *PerfResult) { r.PageReads = 8 }, []string{"read 8 pages from the device, expected 7"}},
	} {
		got := want
		tc.edit(&got)
		drift := VirtualDrift(want, got)
		if len(drift) != len(tc.complaint) {
			t.Errorf("%s: VirtualDrift = %q, want %d entries", tc.name, drift, len(tc.complaint))
			continue
		}
		for i, c := range tc.complaint {
			if !strings.Contains(drift[i], c) {
				t.Errorf("%s: entry %d is %q, want it to say %q", tc.name, i, drift[i], c)
			}
		}
	}
	// A field the expected run left zero is not gated.
	if drift := VirtualDrift(PerfResult{Bench: "c", Events: 1}, PerfResult{Bench: "c", Events: 1, P50NS: 3, Commits: 2}); drift != nil {
		t.Errorf("gated fields the expected run lacks: %q", drift)
	}
}

// TestCheckShardScaling: the 4-shard cell must commit at least
// shardScalingFloor times the 1-shard cell, and both must be present.
func TestCheckShardScaling(t *testing.T) {
	rows := func(s1, s4 int64) []PerfResult {
		return []PerfResult{{Bench: "shard/s1", Commits: s1}, {Bench: "shard/s2", Commits: 2 * s1}, {Bench: "shard/s4", Commits: s4}}
	}
	if err := CheckShardScaling(rows(100, 300)); err != nil {
		t.Errorf("ratio at the floor rejected: %v", err)
	}
	if err := CheckShardScaling(rows(100, 299)); err == nil || !strings.Contains(err.Error(), "2.99x < 3.00x") {
		t.Errorf("ratio below the floor: %v", err)
	}
	if err := CheckShardScaling(rows(100, 300)[:2]); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing shard/s4: %v", err)
	}
	if err := CheckShardScaling(rows(0, 300)); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("shard/s1 without commits: %v", err)
	}
}
