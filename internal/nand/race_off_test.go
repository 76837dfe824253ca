//go:build !race

package nand

const raceEnabled = false
