package obs

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	for _, v := range []time.Duration{30, 10, 20} {
		s.Add(v)
	}
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 20 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 10 || s.Max() != 30 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.Percentile(50) != 20 {
		t.Fatalf("p50 = %v", s.Percentile(50))
	}
}

func TestPercentileInterpolates(t *testing.T) {
	var s Sample
	s.Add(0)
	s.Add(100)
	if got := s.Percentile(25); got != 25 {
		t.Fatalf("p25 = %v, want 25", got)
	}
}

func TestAddAfterPercentileKeepsSorted(t *testing.T) {
	var s Sample
	s.Add(50)
	_ = s.Percentile(50)
	s.Add(10) // must re-sort
	if s.Min() != 10 {
		t.Fatalf("Min = %v after late Add", s.Min())
	}
}

func TestCandlestickOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		for i := 0; i < 50; i++ {
			s.Add(time.Duration(rng.Intn(10000)))
		}
		c := s.Candlestick()
		return c.Min <= c.P25 && c.P25 <= c.P50 && c.P50 <= c.P75 && c.P75 <= c.Max && c.N == 50
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
