//go:build race

package fifo

// raceEnabled reports a -race build, whose instrumented runtime allocates
// on its own schedule: allocation pins do not hold there.
const raceEnabled = true
