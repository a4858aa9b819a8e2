//go:build race

package mmio

// raceEnabled skips the byte-count comparison across GOMAXPROCS: under the
// race detector sync.Pool drops a share of what it is given on purpose, so
// a pooled piece copy is reallocated at random.
const raceEnabled = true
