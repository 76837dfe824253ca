// Package a exercises the maporder analyzer: sim calls, tracer records and
// unsorted accumulation inside range-over-map are reported; slice
// iteration, sorted accumulation and the rest of obs are not.
package a

import (
	"sort"
	"time"

	"xssd/internal/obs"
	"xssd/internal/sim"
)

func schedInMapOrder(env *sim.Env, procs map[string]func(*sim.Proc)) {
	for name, fn := range procs {
		env.Go(name, fn) // want "call to sim.Go inside map iteration"
	}
}

func sleepInMapOrder(p *sim.Proc, delays map[string]int64) {
	for _, d := range delays {
		p.Sleep(time.Duration(d)) // want "call to sim.Sleep inside map iteration"
	}
}

func unsortedAccumulation(m map[string]int) []string {
	var names []string
	for n := range m {
		names = append(names, n) // want "names accumulates elements in map-iteration order"
	}
	return names
}

// sortedAccumulation is the sanctioned pattern: collect, sort, then use.
func sortedAccumulation(m map[string]int) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sliceOrderIsDeterministic: ranging a slice is fine even when the body
// schedules events.
func sliceOrderIsDeterministic(env *sim.Env, names []string, fn func(*sim.Proc)) {
	for _, n := range names {
		env.Go(n, fn)
	}
}

// recordInMapOrder: the tracer's fingerprint folds events in record order,
// so map order would reach it.
func recordInMapOrder(tr *obs.Tracer, pages map[string]int64) {
	for name, n := range pages {
		tr.Record(obs.DestagePage, name, n, 0) // want "call to obs.Record inside map iteration"
	}
}

// countInMapOrder: counter adds commute, so map order cannot reach a
// snapshot.
func countInMapOrder(c *obs.Counter, pages map[string]int64) {
	for _, n := range pages {
		c.Add(n)
	}
}
