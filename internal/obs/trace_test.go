package obs

import (
	"testing"
	"time"
)

func fixedClock(t time.Duration) func() time.Duration {
	return func() time.Duration { return t }
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(CMBWrite, "x", 1, 2)
	if tr.Total() != 0 || tr.Events() != nil || tr.Count(CMBWrite) != 0 {
		t.Fatal("nil tracer should be inert")
	}
}

func TestRecordAndFilter(t *testing.T) {
	tr := NewTracer(16, fixedClock(time.Microsecond))
	tr.Record(CMBWrite, "cmb", 0, 100)
	tr.Record(DestagePage, "destage", 100, 100)
	tr.Record(CMBWrite, "cmb", 100, 50)
	if tr.Total() != 3 {
		t.Fatalf("total = %d", tr.Total())
	}
	writes := tr.Filter(CMBWrite)
	if len(writes) != 2 || writes[0].A != 0 || writes[1].A != 100 {
		t.Fatalf("filter = %+v", writes)
	}
	if tr.Count(DestagePage) != 1 {
		t.Fatal("destage count wrong")
	}
}

func TestRingRotationKeepsLatest(t *testing.T) {
	tr := NewTracer(4, fixedClock(0))
	for i := 0; i < 10; i++ {
		tr.Record(CMBWrite, "cmb", int64(i), 0)
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d, want 4", len(ev))
	}
	for i, e := range ev {
		if e.A != int64(6+i) {
			t.Fatalf("retained order wrong: %+v", ev)
		}
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d", tr.Total())
	}
}

func TestKindStrings(t *testing.T) {
	for k := CMBWrite; k <= QueueOverrun; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("out-of-range kind")
	}
}

func TestDefaultCapacity(t *testing.T) {
	tr := NewTracer(0, fixedClock(0))
	if len(tr.events) != 1024 {
		t.Fatalf("default capacity = %d", len(tr.events))
	}
}
