//go:build !race

package fifo

const raceEnabled = false
