package main

import (
	"testing"

	"xssd/internal/bench"
)

// TestKeepBestTakesTheFewestAllocations folds three repetitions of one
// cell: the kept reading is the fastest run's wall clock with the fewest
// allocations any run made, here the first run's warm-up left out.
func TestKeepBestTakesTheFewestAllocations(t *testing.T) {
	runs := []bench.PerfResult{
		{Bench: "c", WallNS: 300, EventsPerSec: 10, Allocs: 102990},
		{Bench: "c", WallNS: 200, EventsPerSec: 15, Allocs: 100017},
		{Bench: "c", WallNS: 250, EventsPerSec: 12, Allocs: 99999},
	}
	best := runs[0]
	for _, again := range runs[1:] {
		best = keepBest(best, again)
	}
	if best.WallNS != 200 || best.EventsPerSec != 15 || best.Allocs != 99999 {
		t.Fatalf("kept %+v, want the 200 ns run's wall clock with 99999 allocations", best)
	}
}
