package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Snapshot is a point-in-time, fully-ordered export of a registry: every
// series sorted by name, every value an integer of virtual-time origin.
// Its canonical encoding (Encode) is therefore a pure function of the
// simulation seed — the determinism contract the fingerprint asserts.
type Snapshot struct {
	// Now is the virtual timestamp of the snapshot in nanoseconds.
	Now int64 `json:"now_ns"`

	Counters   []NamedValue        `json:"counters"`
	Gauges     []NamedValue        `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// NamedValue is one counter or gauge sample.
type NamedValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramSnapshot is one histogram's state: exact moments plus the
// non-empty log2 buckets (sparse — most of the 65-bucket scale is zero).
type HistogramSnapshot struct {
	Name    string         `json:"name"`
	N       int64          `json:"n"`
	Sum     int64          `json:"sum"`
	Min     int64          `json:"min"`
	Max     int64          `json:"max"`
	Buckets []BucketSample `json:"buckets,omitempty"`
}

// BucketSample is one non-empty bucket: Bit is the bucket index (values in
// [2^(Bit-1), 2^Bit - 1]; bit 0 holds values <= 0), Count its population.
type BucketSample struct {
	Bit   int   `json:"bit"`
	Count int64 `json:"count"`
}

// Snapshot captures the registry's current state. GaugeFunc callbacks are
// evaluated here, in sorted name order.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Now: int64(r.env.Now())}

	cnames := make([]string, 0, len(r.counters))
	for name := range r.counters {
		cnames = append(cnames, name)
	}
	sort.Strings(cnames)
	s.Counters = make([]NamedValue, 0, len(cnames))
	for _, name := range cnames {
		s.Counters = append(s.Counters, NamedValue{Name: name, Value: r.counters[name].Value()})
	}

	gnames := make([]string, 0, len(r.gauges)+len(r.gaugeFns))
	for name := range r.gauges {
		gnames = append(gnames, name)
	}
	for name := range r.gaugeFns {
		if _, dup := r.gauges[name]; !dup {
			gnames = append(gnames, name)
		}
	}
	sort.Strings(gnames)
	s.Gauges = make([]NamedValue, 0, len(gnames))
	for _, name := range gnames {
		var v int64
		if fn, ok := r.gaugeFns[name]; ok {
			v = fn()
		} else {
			v = r.gauges[name].Value()
		}
		s.Gauges = append(s.Gauges, NamedValue{Name: name, Value: v})
	}

	hnames := make([]string, 0, len(r.histograms))
	for name := range r.histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	s.Histograms = make([]HistogramSnapshot, 0, len(hnames))
	for _, name := range hnames {
		h := r.histograms[name]
		hs := HistogramSnapshot{Name: name, N: h.n, Sum: h.sum, Min: h.min, Max: h.max}
		if h.n == 0 {
			hs.Min, hs.Max = 0, 0
		}
		for b, c := range h.buckets {
			if c != 0 {
				hs.Buckets = append(hs.Buckets, BucketSample{Bit: b, Count: c})
			}
		}
		s.Histograms = append(s.Histograms, hs)
	}
	return s
}

// Encode returns the canonical JSON form of the snapshot: compact, sorted,
// trailing newline. Byte-identical across same-seed runs.
func (s *Snapshot) Encode() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Unreachable: a Snapshot holds only integers, strings and slices of
		// structs of those, with no custom marshalers, floats, maps or
		// pointers, and json.Marshal fails only on unsupported types,
		// cycles, NaN or Inf floats and marshaler errors.
		panic(fmt.Sprintf("obs: snapshot encode: %v", err))
	}
	return append(b, '\n')
}

// Fingerprint returns the 64-bit FNV-1a hash of the canonical encoding —
// a cheap handle for "same seed, same telemetry" regression checks.
func (s *Snapshot) Fingerprint() uint64 { return MixBytes(FNVOffset, s.Encode()) }

// WriteJSON writes the canonical JSON encoding to w.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	_, err := w.Write(s.Encode())
	return err
}

// WriteText writes a human-oriented listing: one "name value" line per
// series, histograms as n/mean/p50/p99-style summaries. Line order matches
// the JSON encoding.
func (s *Snapshot) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# snapshot at %v\n", time.Duration(s.Now)); err != nil {
		return err
	}
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "counter %-48s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "gauge   %-48s %d\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		mean := float64(0)
		if h.N > 0 {
			mean = float64(h.Sum) / float64(h.N)
		}
		if _, err := fmt.Fprintf(w, "hist    %-48s n=%d mean=%.0f min=%d max=%d\n",
			h.Name, h.N, mean, h.Min, h.Max); err != nil {
			return err
		}
	}
	return nil
}
