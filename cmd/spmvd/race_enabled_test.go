//go:build race

package main

// raceEnabled skips the allocation budget: the race runtime allocates for
// its own instrumentation.
const raceEnabled = true
