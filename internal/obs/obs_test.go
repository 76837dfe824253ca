package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"xssd/internal/sim"
)

// TestBucketBoundaries pins the log2 bucketing contract: 2^k-1 and 2^k
// land in adjacent buckets for every k, zero and negatives in bucket 0.
func TestBucketBoundaries(t *testing.T) {
	if got := BucketIndex(0); got != 0 {
		t.Errorf("BucketIndex(0) = %d, want 0", got)
	}
	if got := BucketIndex(-5); got != 0 {
		t.Errorf("BucketIndex(-5) = %d, want 0", got)
	}
	if got := BucketIndex(1); got != 1 {
		t.Errorf("BucketIndex(1) = %d, want 1", got)
	}
	for k := 1; k < 63; k++ {
		hi := int64(1)<<k - 1 // top of bucket k
		lo := int64(1) << k   // bottom of bucket k+1
		if got := BucketIndex(hi); got != k {
			t.Errorf("BucketIndex(2^%d-1) = %d, want %d", k, got, k)
		}
		if got := BucketIndex(lo); got != k+1 {
			t.Errorf("BucketIndex(2^%d) = %d, want %d", k, got, k+1)
		}
	}
	const maxInt64 = int64(^uint64(0) >> 1)
	if got := BucketIndex(maxInt64); got != 63 {
		t.Errorf("BucketIndex(MaxInt64) = %d, want 63", got)
	}
}

// TestBucketBoundsRoundTrip checks every value maps into the bounds its
// bucket advertises.
func TestBucketBoundsRoundTrip(t *testing.T) {
	for b := 0; b < 64; b++ {
		lo, hi := BucketBounds(b)
		if BucketIndex(lo) != b || BucketIndex(hi) != b {
			t.Errorf("bucket %d: bounds [%d,%d] map to buckets %d,%d",
				b, lo, hi, BucketIndex(lo), BucketIndex(hi))
		}
		if b > 0 {
			if BucketIndex(lo-1) != b-1 {
				t.Errorf("bucket %d: lo-1=%d should fall in bucket %d, got %d",
					b, lo-1, b-1, BucketIndex(lo-1))
			}
		}
	}
}

func TestHistogramMoments(t *testing.T) {
	env := sim.NewEnv(1)
	h := For(env).Histogram("h")
	for _, v := range []int64{1, 2, 3, 1000} {
		h.Observe(v)
	}
	if h.N() != 4 || h.Sum() != 1006 {
		t.Fatalf("n=%d sum=%d, want 4/1006", h.N(), h.Sum())
	}
	if h.Mean() != 251.5 {
		t.Fatalf("mean=%v, want 251.5", h.Mean())
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("q0=%d, want exact min 1", q)
	}
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("q1=%d, want exact max 1000", q)
	}
	// p50 rank falls in the bucket of 3 ([2,3]); upper edge is 3.
	if q := h.Quantile(0.5); q != 3 {
		t.Fatalf("q50=%d, want 3", q)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(5)
	c.Inc()
	g.Set(7)
	h.Observe(3)
	h.ObserveDuration(time.Second)
	h.Since(0)
	h.Start().End()
	if c.Value() != 0 || g.Value() != 0 || h.N() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	var s Scope // zero scope: instruments are nil, methods no-op
	s.Counter("x").Inc()
	s.GaugeFunc("y", func() int64 { return 1 })
	s.Sub("z").Histogram("h").Observe(1)
}

func TestRegistryDedupAndSpan(t *testing.T) {
	env := sim.NewEnv(42)
	r := For(env)
	if r != For(env) {
		t.Fatal("For must return the same registry per env")
	}
	if r.Counter("a/b") != r.Counter("a/b") {
		t.Fatal("same-name counters must be the same instrument")
	}
	if r.Scope("a").Counter("b") != r.Counter("a/b") {
		t.Fatal("scoped name must join with /")
	}

	h := r.Histogram("span_ns")
	env.Go("worker", func(p *sim.Proc) {
		sp := h.Start()
		p.Sleep(123 * time.Nanosecond)
		sp.End()
		t0 := p.Now()
		p.Sleep(4 * time.Nanosecond)
		h.Since(t0)
	})
	env.Run()
	if h.N() != 2 || h.Sum() != 127 {
		t.Fatalf("span histogram n=%d sum=%d, want 2/127", h.N(), h.Sum())
	}
}

// TestSnapshotDeterminism runs the same instrumented program on two envs
// with one seed and demands byte-identical canonical encodings, and a
// different registration order to prove sorting wins over insertion order.
func TestSnapshotDeterminism(t *testing.T) {
	run := func(reverse bool) []byte {
		env := sim.NewEnv(7)
		r := For(env)
		names := []string{"dev0/a", "dev0/b", "dev1/a"}
		if reverse {
			for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
				names[i], names[j] = names[j], names[i]
			}
		}
		for _, n := range names {
			r.Counter(n)
		}
		r.GaugeFunc("dev0/depth", func() int64 { return 3 })
		h := r.Histogram("dev0/lat_ns")
		env.Go("w", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				t0 := p.Now()
				p.Sleep(time.Duration(env.Rand().Intn(1000)) * time.Nanosecond)
				h.Since(t0)
				r.Counter("dev0/a").Inc()
			}
		})
		env.Run()
		return r.Snapshot().Encode()
	}
	a, b := run(false), run(true)
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ:\n%s\n%s", a, b)
	}

	if snapA := run(false); !bytes.Equal(a, snapA) {
		t.Fatal("same seed must give the same bytes across repeated runs")
	}
}

func TestSnapshotFingerprintAndFormats(t *testing.T) {
	env := sim.NewEnv(3)
	r := For(env)
	r.Counter("c").Add(10)
	r.Gauge("g").Set(-4)
	r.Histogram("h").Observe(9)
	snap := r.Snapshot()
	if snap.Fingerprint() != snap.Fingerprint() {
		t.Fatal("fingerprint must be stable")
	}
	r.Counter("c").Inc()
	if r.Snapshot().Fingerprint() == snap.Fingerprint() {
		t.Fatal("fingerprint must move when a series moves")
	}

	var j, txt bytes.Buffer
	if err := snap.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(j.Bytes(), []byte("\n")) {
		t.Fatal("canonical JSON must end in newline")
	}
	for _, want := range []string{"counter c", "gauge   g", "hist    h"} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("text output missing %q:\n%s", want, txt.String())
		}
	}
}

func TestHistogramSummaryBucketBoundaries(t *testing.T) {
	r := For(sim.NewEnv(1))
	h := r.Scope("t").Histogram("lat")
	// 600 observations in the [64,127] bucket, 395 in [1024,2047], and 5
	// at 65536: rank 500 (p50) lands in the first, rank 990 (p99) in the
	// second, rank 999 (p999) in the third.
	for i := 0; i < 600; i++ {
		h.Observe(100)
	}
	for i := 0; i < 395; i++ {
		h.Observe(1500)
	}
	for i := 0; i < 5; i++ {
		h.Observe(65536)
	}
	s := h.Summary()
	if s.N != 1000 || s.Min != 100 || s.Max != 65536 {
		t.Fatalf("summary n/min/max = %d/%d/%d", s.N, s.Min, s.Max)
	}
	// Quantiles resolve to the high edge of the covering bucket: p50 in
	// [64,127] → 127, p99 in [1024,2047] → 2047, p999 in the top bucket,
	// clamped to the observed max.
	if s.P50 != 127 {
		t.Errorf("p50 = %d, want 127 (hi edge of [64,127])", s.P50)
	}
	if s.P99 != 2047 {
		t.Errorf("p99 = %d, want 2047 (hi edge of [1024,2047])", s.P99)
	}
	if s.P999 != 65536 {
		t.Errorf("p999 = %d, want 65536 (clamped to max)", s.P999)
	}
	if want := (600*100 + 395*1500 + 5*65536) / 1000.0; s.Mean != want {
		t.Errorf("mean = %v, want %v", s.Mean, want)
	}
}

func TestHistogramSummaryEmptyAndNil(t *testing.T) {
	var h *Histogram
	if s := h.Summary(); s != (Summary{}) {
		t.Fatalf("nil histogram summary = %+v, want zero", s)
	}
	if s := For(sim.NewEnv(1)).Scope("t").Histogram("empty").Summary(); s != (Summary{}) {
		t.Fatalf("empty histogram summary = %+v, want zero", s)
	}
}

func TestSummaryOfMergesAtBucketLevel(t *testing.T) {
	r := For(sim.NewEnv(1))
	a := r.Scope("t").Histogram("a")
	b := r.Scope("t").Histogram("b")
	// Split the same population from TestHistogramSummaryBucketBoundaries
	// across two histograms: the merged summary must match the combined
	// one exactly, because merging adds bucket counts.
	for i := 0; i < 300; i++ {
		a.Observe(100)
		b.Observe(100)
	}
	for i := 0; i < 395; i++ {
		a.Observe(1500)
	}
	for i := 0; i < 5; i++ {
		b.Observe(65536)
	}
	s := SummaryOf(a, b)
	if s.N != 1000 || s.Min != 100 || s.Max != 65536 {
		t.Fatalf("merged n/min/max = %d/%d/%d", s.N, s.Min, s.Max)
	}
	if s.P50 != 127 || s.P99 != 2047 || s.P999 != 65536 {
		t.Fatalf("merged quantiles p50=%d p99=%d p999=%d, want 127/2047/65536", s.P50, s.P99, s.P999)
	}
	// Nil members and empty calls degrade gracefully.
	if s2 := SummaryOf(a, nil, b); s2 != s {
		t.Fatalf("nil member changed the merge: %+v vs %+v", s2, s)
	}
	if s3 := SummaryOf(); s3 != (Summary{}) {
		t.Fatalf("empty merge = %+v, want zero", s3)
	}
}
