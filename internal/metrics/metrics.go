// Package metrics provides the small statistics toolkit the benchmark
// harness uses to report experiment results: streaming samples with
// percentile summaries (for latency candlesticks à la the paper's Fig 13),
// and throughput counters over virtual time.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Sample accumulates duration observations and summarizes them.
// The zero value is ready to use and retains every observation; use
// NewReservoir for a bounded-memory variant.
type Sample struct {
	vals   []time.Duration
	sorted bool
	sum    float64
	n      int64 // total observations, including evicted ones

	// Reservoir mode (capacity > 0): vals is a uniform random sample of
	// capacity observations, maintained with Vitter's Algorithm R.
	capacity int
	rng      *rand.Rand
}

// NewReservoir returns a Sample that keeps a uniform random subset of at
// most capacity observations (Vitter's Algorithm R), so percentile
// summaries over unbounded streams use bounded memory. Count and mean
// remain exact. rng drives the replacement choices: passing a
// deterministically seeded source (e.g. one derived from the simulation
// seed) makes the reservoir — and hence every percentile — reproducible
// across runs.
func NewReservoir(capacity int, rng *rand.Rand) *Sample {
	if capacity <= 0 {
		panic("metrics: reservoir capacity must be positive")
	}
	return &Sample{capacity: capacity, rng: rng}
}

// Add records one observation.
func (s *Sample) Add(d time.Duration) {
	s.n++
	s.sum += float64(d)
	if s.capacity > 0 && len(s.vals) == s.capacity {
		// Algorithm R: the new observation replaces a random resident with
		// probability capacity/n, keeping the reservoir a uniform sample.
		if j := s.rng.Int63n(s.n); j < int64(s.capacity) {
			s.vals[j] = d
			s.sorted = false
		}
		return
	}
	s.vals = append(s.vals, d)
	s.sorted = false
}

// N returns the number of observations (including any the reservoir
// evicted).
func (s *Sample) N() int { return int(s.n) }

// Retained returns how many observations are resident (equal to N unless
// a reservoir has started evicting).
func (s *Sample) Retained() int { return len(s.vals) }

// Mean returns the arithmetic mean over all observations, or 0 if empty.
func (s *Sample) Mean() time.Duration {
	if s.n == 0 {
		return 0
	}
	return time.Duration(s.sum / float64(s.n))
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Slice(s.vals, func(i, j int) bool { return s.vals[i] < s.vals[j] })
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100), or 0 if empty.
// It interpolates linearly between the two order statistics around rank
// p/100 * (n-1); it is not nearest-rank, so the result need not be an
// observed value.
func (s *Sample) Percentile(p float64) time.Duration {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1]
	}
	rank := p / 100 * float64(len(s.vals)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.vals[lo]
	}
	frac := rank - float64(lo)
	return s.vals[lo] + time.Duration(frac*float64(s.vals[hi]-s.vals[lo]))
}

// Min returns the smallest observation, or 0 if empty.
func (s *Sample) Min() time.Duration { return s.Percentile(0) }

// Max returns the largest observation, or 0 if empty.
func (s *Sample) Max() time.Duration { return s.Percentile(100) }

// Candlestick summarizes a sample the way the paper's Fig 13 plots
// replication delay: min/p25/median/p75/max.
type Candlestick struct {
	N                       int
	Min, P25, P50, P75, Max time.Duration
	Mean                    time.Duration
}

// Candlestick computes the five-number summary plus mean.
func (s *Sample) Candlestick() Candlestick {
	return Candlestick{
		N:    s.N(),
		Min:  s.Min(),
		P25:  s.Percentile(25),
		P50:  s.Percentile(50),
		P75:  s.Percentile(75),
		Max:  s.Max(),
		Mean: s.Mean(),
	}
}

// IQR returns the interquartile range (P75 - P25), the spread measure the
// replication-delay experiment compares across update periods.
func (c Candlestick) IQR() time.Duration { return c.P75 - c.P25 }

// String implements fmt.Stringer.
func (c Candlestick) String() string {
	return fmt.Sprintf("n=%d min=%v p25=%v p50=%v p75=%v max=%v mean=%v",
		c.N, c.Min, c.P25, c.P50, c.P75, c.Max, c.Mean)
}

// Counter counts events (e.g. committed transactions, bytes moved) and
// converts them to rates over a virtual-time interval.
type Counter struct {
	n     int64
	start time.Duration
}

// NewCounter returns a counter whose rate window begins at start.
func NewCounter(start time.Duration) *Counter { return &Counter{start: start} }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Total returns the accumulated count.
func (c *Counter) Total() int64 { return c.n }

// PerSecond converts the count to a rate over [start, now].
func (c *Counter) PerSecond(now time.Duration) float64 {
	window := now - c.start
	if window <= 0 {
		return 0
	}
	return float64(c.n) / window.Seconds()
}

// Reset zeroes the counter and restarts its window at now.
func (c *Counter) Reset(now time.Duration) {
	c.n = 0
	c.start = now
}

// MBps formats a byte counter as megabytes per second over [start, now].
func (c *Counter) MBps(now time.Duration) float64 {
	return c.PerSecond(now) / 1e6
}
