//go:build !race

package mmio

const raceEnabled = false
