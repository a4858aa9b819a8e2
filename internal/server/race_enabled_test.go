//go:build race

package server

// raceEnabled skips the hard 0-allocation assertions: under the race
// detector sync.Pool drops a share of what it is given on purpose, so a
// pooled path allocates at random.
const raceEnabled = true
