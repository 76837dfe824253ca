package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// PerfResult is one row of the suite's canonical output (BENCH.json): a
// cell name, its wall-clock cost, the simulator events it dispatched, and
// the heap allocations the run charged.
type PerfResult struct {
	Bench        string  `json:"bench"`
	WallNS       int64   `json:"wall_ns"`
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Allocs       int64   `json:"allocs"`
	// Latency cells also carry their virtual-time quantiles. Virtual time
	// makes them exact, so the compare gate demands equality, like event
	// counts. Other cells leave them zero and the fields stay out of
	// their JSON.
	P50NS  int64 `json:"p50_ns,omitempty"`
	P99NS  int64 `json:"p99_ns,omitempty"`
	P999NS int64 `json:"p999_ns,omitempty"`
	// Shard cells carry their aggregate committed-transaction count.
	// Commits are virtual-deterministic, so the compare gate demands
	// equality, like event counts.
	Commits int64 `json:"commits,omitempty"`
	// The destage cell carries the flash pages its device programmed: the
	// NAND bill is virtual-deterministic too, and gated the same way.
	NandPages int64 `json:"nand_pages,omitempty"`
	// The paged cell carries the pages its buffer pool read from the
	// device — the tree's read amplification, exact like the rest.
	PageReads int64 `json:"page_reads,omitempty"`
}

// WritePerfFile writes results as indented JSON with a trailing newline —
// the checked-in baseline format.
func WritePerfFile(path string, results []PerfResult) error {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadPerfFile reads a file written by WritePerfFile.
func ReadPerfFile(path string) ([]PerfResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []PerfResult
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return out, nil
}

// compareEventsTol: the fraction by which a cell's events/second may fall
// below its baseline's before Compare fails it.
const compareEventsTol = 0.15

// compareWallFloorNS: the events/second tolerance only applies to cells
// whose baseline run lasted at least this long. Below it, scheduler and
// timer noise on a shared CI host routinely exceeds any reasonable
// tolerance, so a throughput gate on such a cell measures the machine,
// not the code. The event-count equality check (the determinism gate)
// applies to every cell regardless of duration.
const compareWallFloorNS = int64(500_000_000)

// compareAllocsTol: the fraction by which a cell's allocation count may
// exceed its baseline's. For one toolchain the count repeats to a few parts
// in 10⁵ (map growth, GC timing), so unlike events/second it is gated on
// every cell that recorded it, however short.
const compareAllocsTol = 0.05

// compareAllocsStale: a cell whose allocation count falls more than this
// fraction under its baseline's draws a warning. Its pin no longer bites: a
// regression back up to it would pass the compareAllocsTol gate unseen.
const compareAllocsStale = 0.10

// VirtualDrift lists every virtual-time field of got that differs from
// want's: the event count, and where want recorded them the quantiles,
// commit count, flash-page count and page-read count. For one program
// these repeat exactly, so any entry is a behavior change or a
// determinism break, never machine noise. An event-count drift is
// reported alone: the rest follow from it.
func VirtualDrift(want, got PerfResult) []string {
	if got.Events != want.Events {
		return []string{fmt.Sprintf(
			"%s: dispatched %d events, expected %d (determinism break?)", want.Bench, got.Events, want.Events)}
	}
	var problems []string
	if want.P50NS != 0 || want.P99NS != 0 || want.P999NS != 0 {
		// One line per drifting quantile, expected-then-got, so a CI
		// log names the exact series that moved.
		for _, q := range []struct {
			name     string
			exp, got int64
		}{
			{"p50", want.P50NS, got.P50NS},
			{"p99", want.P99NS, got.P99NS},
			{"p999", want.P999NS, got.P999NS},
		} {
			if q.got != q.exp {
				problems = append(problems, fmt.Sprintf(
					"%s: %s expected %dns, got %dns (virtual-time drift — determinism break?)",
					want.Bench, q.name, q.exp, q.got))
			}
		}
	}
	if want.Commits != 0 && got.Commits != want.Commits {
		problems = append(problems, fmt.Sprintf(
			"%s: committed %d transactions, expected %d (virtual-time drift — determinism break?)",
			want.Bench, got.Commits, want.Commits))
	}
	if want.NandPages != 0 && got.NandPages != want.NandPages {
		problems = append(problems, fmt.Sprintf(
			"%s: programmed %d flash pages, expected %d (the destage policy changed?)",
			want.Bench, got.NandPages, want.NandPages))
	}
	if want.PageReads != 0 && got.PageReads != want.PageReads {
		problems = append(problems, fmt.Sprintf(
			"%s: read %d pages from the device, expected %d (the tree's read budget changed?)",
			want.Bench, got.PageReads, want.PageReads))
	}
	return problems
}

// Compare gates a new suite run against a baseline: it fails if any
// baseline cell is missing from the new run or drifted in a virtual-time
// field (VirtualDrift), allocated more than compareAllocsTol above the
// baseline's count (cells whose baseline recorded no allocs are skipped),
// or regressed in events/second by more than compareEventsTol on cells
// running past compareWallFloorNS. A cell that allocates more than
// compareAllocsStale below its baseline passes with a warning: the
// baseline wants re-pinning.
func Compare(baseline, current []PerfResult) (warnings []string, err error) {
	byName := make(map[string]PerfResult, len(current))
	for _, r := range current {
		byName[r.Bench] = r
	}
	var problems []string
	for _, b := range baseline {
		c, ok := byName[b.Bench]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: missing from new results", b.Bench))
			continue
		}
		problems = append(problems, VirtualDrift(b, c)...)
		if c.Events != b.Events {
			continue // a different program: its allocations and speed say nothing
		}
		if b.Allocs > 0 && float64(c.Allocs) > float64(b.Allocs)*(1+compareAllocsTol) {
			problems = append(problems, fmt.Sprintf(
				"%s: %d allocs, >%.0f%% above baseline %d",
				b.Bench, c.Allocs, compareAllocsTol*100, b.Allocs))
		}
		if float64(c.Allocs) < float64(b.Allocs)*(1-compareAllocsStale) {
			warnings = append(warnings, fmt.Sprintf(
				"%s: %d allocs, >%.0f%% below baseline %d; re-pin the baseline",
				b.Bench, c.Allocs, compareAllocsStale*100, b.Allocs))
		}
		if b.WallNS >= compareWallFloorNS && b.EventsPerSec > 0 && c.EventsPerSec < b.EventsPerSec*(1-compareEventsTol) {
			problems = append(problems, fmt.Sprintf(
				"%s: %.0f events/s, >%.0f%% below baseline %.0f",
				b.Bench, c.EventsPerSec, compareEventsTol*100, b.EventsPerSec))
		}
	}
	problems = append(problems, workerParityProblems(current)...)
	if len(problems) > 0 {
		return warnings, fmt.Errorf("bench: perf regression vs baseline:\n  %s", strings.Join(problems, "\n  "))
	}
	return warnings, nil
}

// swSuffix marks cells that run the same topology under different numbers
// of simulation workers (the /swN twins of the suite).
var swSuffix = regexp.MustCompile(`/sw\d+$`)

// workerParityProblems enforces the differential-determinism contract on a
// result set: cells whose names differ only in their /swN suffix execute
// the identical simulation under different worker counts, so a drift in
// their event counts is a determinism break in the parallel engine — a
// hard failure regardless of tolerance.
func workerParityProblems(results []PerfResult) []string {
	groups := make(map[string][]PerfResult)
	for _, r := range results {
		base := swSuffix.ReplaceAllString(r.Bench, "")
		if base != r.Bench {
			groups[base] = append(groups[base], r)
		}
	}
	bases := make([]string, 0, len(groups))
	for base, rs := range groups {
		if len(rs) > 1 {
			bases = append(bases, base)
		}
	}
	sort.Strings(bases)
	var problems []string
	for _, base := range bases {
		rs := groups[base]
		for _, r := range rs[1:] {
			if r.Events != rs[0].Events {
				problems = append(problems, fmt.Sprintf(
					"%s: dispatched %d events but its worker twin %s dispatched %d (serial/parallel drift)",
					r.Bench, r.Events, rs[0].Bench, rs[0].Events))
			}
			if r.Commits != rs[0].Commits {
				problems = append(problems, fmt.Sprintf(
					"%s: committed %d transactions but its worker twin %s committed %d (serial/parallel drift)",
					r.Bench, r.Commits, rs[0].Bench, rs[0].Commits))
			}
		}
	}
	return problems
}
