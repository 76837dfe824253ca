package obs

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample accumulates duration observations exactly and summarizes them:
// the figures' latency means (Figs 9, 11) and candlesticks (Fig 13, the
// ablations), where a histogram's bucket edges would blur the printed
// value. The zero value is ready to use and retains every observation.
type Sample struct {
	vals   []time.Duration
	sorted bool
	sum    float64
}

// Add records one observation.
func (s *Sample) Add(d time.Duration) {
	s.sum += float64(d)
	s.vals = append(s.vals, d)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.vals) }

// Mean returns the arithmetic mean over all observations, or 0 if empty.
func (s *Sample) Mean() time.Duration {
	if len(s.vals) == 0 {
		return 0
	}
	return time.Duration(s.sum / float64(len(s.vals)))
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

// String implements fmt.Stringer.
func (c Candlestick) String() string {
	return fmt.Sprintf("n=%d min=%v p25=%v p50=%v p75=%v max=%v mean=%v",
		c.N, c.Min, c.P25, c.P50, c.P75, c.Max, c.Mean)
}
