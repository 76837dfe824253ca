// Package obs is the deterministic observability layer: a per-environment
// metrics registry holding counters, gauges and virtual-time histograms
// with hierarchical names ("dev0/destage/pages", "dev0/transport/peer1/lag"),
// exact samples for the figures' printed latencies (Sample, Candlestick),
// and the device's event history (Tracer). One FNV-1a mixer (Mix64,
// MixBytes) backs every fingerprint.
//
// Everything is driven by sim.Env virtual time — never the wall clock — so
// two runs with the same seed produce bit-identical snapshots; the snapshot
// carries a fingerprint over its canonical encoding to make that cheap to
// assert. Instruments are plain in-process accumulators (an Add is one
// int64 add, a histogram Observe is one bits.Len64 plus three adds), cheap
// enough to stay always-on in the hot paths.
//
// All instrument methods are nil-receiver safe: a module may hold
// instrument pointers that are only populated when observation is wired up
// (see the Observe hooks on sched, nand and ftl) and record through them
// unconditionally.
package obs

import (
	"math/bits"
	"time"

	"xssd/internal/sim"
)

// envKey is the sim.Env attachment slot the registry lives in.
const envKey = "obs.registry"

// For returns the metrics registry of env, creating and attaching it on
// first use. Lookups key on the environment alone, so no cross-env order
// can leak into results; the registry shares the environment's lifetime.
func For(env *sim.Env) *Registry {
	if r, ok := env.Attachment(envKey).(*Registry); ok {
		return r
	}
	r := &Registry{
		env:        env,
		counters:   make(map[string]*Counter),
		gaugeFns:   make(map[string]func() int64),
		histograms: make(map[string]*Histogram),
	}
	env.Attach(envKey, r)
	return r
}

// Registry names and owns the instruments of one simulation environment.
// Registering the same (kind, name) twice returns the already-registered
// instrument, so independent components may share a series (two xapi
// loggers on the same device accumulate into one counter). Names are
// hierarchical slash-separated paths; snapshots emit them in sorted order.
type Registry struct {
	env        *sim.Env
	counters   map[string]*Counter
	gaugeFns   map[string]func() int64
	histograms map[string]*Histogram

	// Instruments are carved from fixed-size slabs instead of allocated
	// one by one: hot counters end up adjacent in memory, and registration
	// stops being one heap object per series. Slab elements never move, so
	// handed-out pointers stay stable for the registry's lifetime.
	counterSlab *[counterSlabSize]Counter
	counterUsed int
	histSlab    *[histSlabSize]Histogram
	histUsed    int
}

const (
	counterSlabSize = 64
	histSlabSize    = 8
)

func (r *Registry) newCounter() *Counter {
	if r.counterSlab == nil || r.counterUsed == len(r.counterSlab) {
		r.counterSlab = new([counterSlabSize]Counter)
		r.counterUsed = 0
	}
	c := &r.counterSlab[r.counterUsed]
	r.counterUsed++
	return c
}

func (r *Registry) newHistogram() *Histogram {
	if r.histSlab == nil || r.histUsed == len(r.histSlab) {
		r.histSlab = new([histSlabSize]Histogram)
		r.histUsed = 0
	}
	h := &r.histSlab[r.histUsed]
	r.histUsed++
	return h
}

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := r.newCounter()
	r.counters[name] = c
	return c
}

// GaugeFunc registers fn as a gauge evaluated lazily at snapshot time (for
// values the owning module already tracks: ring frontiers, backlogs, queue
// depths). Re-registering a name replaces the callback — modules whose
// topology changes (transport peers after a promotion) simply re-register.
// fn must be a pure read of simulation state.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.gaugeFns[name] = fn
}

// Histogram returns the histogram registered under name, creating it if
// new. Values are int64 (nanoseconds for latency series, bytes for size
// series) bucketed on a fixed log2 scale — see Bucket.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h := r.newHistogram()
	h.env = r.env
	h.min = int64(^uint64(0) >> 1)
	r.histograms[name] = h
	return h
}

// Scope is a Registry view that prefixes every instrument name, so a module
// can be handed "dev0/destage" and register "pages" under it. The zero
// Scope is a no-op view that returns nil (no-op) instruments.
type Scope struct {
	r      *Registry
	prefix string
}

// Scope returns a view of the registry under prefix.
func (r *Registry) Scope(prefix string) Scope { return Scope{r: r, prefix: prefix} }

// Sub returns a child scope: Scope("a").Sub("b") names under "a/b".
func (s Scope) Sub(name string) Scope {
	if s.r == nil {
		return Scope{}
	}
	return Scope{r: s.r, prefix: s.join(name)}
}

func (s Scope) join(name string) string {
	if s.prefix == "" {
		return name
	}
	return s.prefix + "/" + name
}

// Counter registers a counter under the scope's prefix.
func (s Scope) Counter(name string) *Counter {
	if s.r == nil {
		return nil
	}
	return s.r.Counter(s.join(name))
}

// GaugeFunc registers a lazy gauge under the scope's prefix.
func (s Scope) GaugeFunc(name string, fn func() int64) {
	if s.r == nil {
		return
	}
	s.r.GaugeFunc(s.join(name), fn)
}

// Histogram registers a histogram under the scope's prefix.
func (s Scope) Histogram(name string) *Histogram {
	if s.r == nil {
		return nil
	}
	return s.r.Histogram(s.join(name))
}

// Counter is a monotonically growing int64 series.
type Counter struct{ v int64 }

// Add increments the counter by delta.
//
//xssd:hotpath
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v += delta
	}
}

// Inc increments the counter by one.
//
//xssd:hotpath
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// NumBuckets is the fixed histogram bucket count: bucket 0 holds values
// <= 0, bucket b (1..64) holds values v with bits.Len64(v) == b, i.e. the
// range [2^(b-1), 2^b - 1]. The scale covers every int64 so histograms
// never reconfigure, which keeps snapshots structurally stable.
const NumBuckets = 65

// BucketIndex returns the bucket a value lands in.
func BucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketBounds returns the inclusive value range of bucket b.
func BucketBounds(b int) (lo, hi int64) {
	if b <= 0 {
		return 0, 0
	}
	const maxInt64 = int64(^uint64(0) >> 1)
	if b >= 64 {
		// Unreachable for int64 observations (bits.Len64 of a positive
		// int64 is at most 63); kept so the scale is total.
		return maxInt64, maxInt64
	}
	if b == 63 {
		return int64(1) << 62, maxInt64
	}
	return int64(1) << (b - 1), int64(1)<<b - 1
}

// Histogram accumulates int64 observations into fixed log2 buckets and
// tracks exact n, sum, min and max. Latency series record nanoseconds of
// virtual time; size series record bytes.
type Histogram struct {
	env      *sim.Env
	buckets  [NumBuckets]int64
	n        int64
	sum      int64
	min, max int64
}

// Observe records one value.
//
//xssd:hotpath
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[BucketIndex(v)]++
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// ObserveDuration records a virtual-time duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Since records the virtual time elapsed from start to now: the span-timer
// pattern — t0 := env.Now() ... h.Since(t0).
//
//xssd:hotpath
func (h *Histogram) Since(start time.Duration) {
	if h == nil {
		return
	}
	h.Observe(int64(h.env.Now() - start))
}

// Start opens a span on the histogram; End records its duration. The zero
// Span (from a nil histogram) is a no-op.
func (h *Histogram) Start() Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: h.env.Now()}
}

// Span is an in-flight virtual-time measurement.
type Span struct {
	h     *Histogram
	start time.Duration
}

// End records the span's duration on its histogram.
func (s Span) End() {
	if s.h != nil {
		s.h.Since(s.start)
	}
}

// N returns the observation count.
func (h *Histogram) N() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the exact mean observation, 0 when empty.
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// high edge of the bucket holding that rank (exact min/max at the ends).
// Log2 buckets bound the relative error by 2x, which is enough to place a
// latency on the right order of magnitude.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen int64
	for b := 0; b < NumBuckets; b++ {
		seen += h.buckets[b]
		if seen > rank {
			_, hi := BucketBounds(b)
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}

// Summary is a one-call digest of a histogram: count, exact mean and
// range, and the standard tail quantiles (p50/p99/p999, each the
// Quantile upper bound). The latency suite and the device Stats()
// assemblers both report this shape.
type Summary struct {
	N    int64
	Mean float64
	Min  int64
	Max  int64
	P50  int64
	P99  int64
	P999 int64
}

// Summary extracts the digest; the zero value when the histogram is nil
// or empty.
func (h *Histogram) Summary() Summary {
	if h == nil || h.n == 0 {
		return Summary{}
	}
	return Summary{
		N:    h.n,
		Mean: h.Mean(),
		Min:  h.min,
		Max:  h.max,
		P50:  h.Quantile(0.50),
		P99:  h.Quantile(0.99),
		P999: h.Quantile(0.999),
	}
}

// SummaryOf digests the union of several histograms — a bucket-level
// merge, so quantiles carry the same log2 upper-bound semantics as a
// single histogram's. Nil and empty histograms are skipped; the
// cross-queue latency view of a multi-queue driver is the typical use.
func SummaryOf(hs ...*Histogram) Summary {
	var merged Histogram
	merged.min = int64(^uint64(0) >> 1)
	for _, h := range hs {
		if h == nil || h.n == 0 {
			continue
		}
		merged.n += h.n
		merged.sum += h.sum
		if h.min < merged.min {
			merged.min = h.min
		}
		if h.max > merged.max {
			merged.max = h.max
		}
		for b, cnt := range h.buckets {
			merged.buckets[b] += cnt
		}
	}
	return merged.Summary()
}
