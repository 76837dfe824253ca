//go:build !race

package villars

const raceEnabled = false
