// Package obs stands in for the measurement layer, which gets no
// exemption: its samples, histograms and tracer are driven by sim
// virtual time, so a wall-clock read or a raw goroutine there breaks
// reproducibility like anywhere else.
package obs

import "time"

func Elapsed(start time.Time) time.Duration {
	return time.Since(start) // want "time.Since reads the wall clock"
}

func Flush(fn func()) {
	go fn() // want "raw go statement bypasses the sim scheduler"
}
