package bench

import (
	"testing"
	"time"
)

// The latency cells' determinism contract: a cell re-run dispatches the
// same events and reports the same virtual-time quantiles, and the
// serial/parallel engines agree bit-for-bit.

func TestLatencyNVMeCellRepeatsExactly(t *testing.T) {
	a := LatencyNVMeCell(4, 8, 1)
	b := LatencyNVMeCell(4, 8, 1)
	if a.Events != b.Events || a.Lat != b.Lat {
		t.Fatalf("re-run drifted: %+v vs %+v", a, b)
	}
	if a.Lat.N == 0 || a.Lat.P50 <= 0 || a.Lat.P999 < a.Lat.P99 || a.Lat.P99 < a.Lat.P50 {
		t.Fatalf("implausible latency digest %+v", a.Lat)
	}
}

func TestLatencyNVMeCellWorkerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("two full latency cells")
	}
	prev := engineWorkers
	defer SetEngineWorkers(prev)
	SetEngineWorkers(1)
	sw1 := LatencyNVMeCell(4, 8, 1)
	SetEngineWorkers(8)
	sw8 := LatencyNVMeCell(4, 8, 1)
	if sw1.Events != sw8.Events || sw1.Lat != sw8.Lat {
		t.Fatalf("serial/parallel drift: sw1 %+v vs sw8 %+v", sw1, sw8)
	}
}

func TestLatencyTPCCPipelineBeatsSynchronous(t *testing.T) {
	if testing.Short() {
		t.Skip("two full TPC-C cells")
	}
	pipe1 := LatencyTPCCCell(1)
	pipe16 := LatencyTPCCCell(16)
	// Depth 16 keeps commits in flight across group-commit rounds: it
	// must complete strictly more transactions and cut the median
	// submit→durable latency (the PR's headline effect).
	if pipe16.Lat.N <= pipe1.Lat.N {
		t.Fatalf("pipelined ops %d <= synchronous ops %d", pipe16.Lat.N, pipe1.Lat.N)
	}
	if pipe16.Lat.P50 >= pipe1.Lat.P50 {
		t.Fatalf("pipelined p50 %d >= synchronous p50 %d", pipe16.Lat.P50, pipe1.Lat.P50)
	}
}

// TestLatencyTPCCPipe1MeasuresTheGroupTimeout pins what the depth-1 cell
// measures: a terminal waits out each commit before its next, so no group
// reaches GroupBytes and every commit is acknowledged when the 10 ms
// GroupTimeout flushes its group. Each sample spans from the commit's
// submit to the instant the log made it durable.
func TestLatencyTPCCPipe1MeasuresTheGroupTimeout(t *testing.T) {
	lat := LatencyTPCCCell(1).Lat
	lo, hi := int64(9500*time.Microsecond), int64(10100*time.Microsecond)
	if lat.N == 0 || lat.Min < lo || lat.Max > hi {
		t.Fatalf("pipe1 latency %+v, want every sample in [9.5 ms, 10.1 ms]", lat)
	}
}
