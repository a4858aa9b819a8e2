package kernels

// Test hooks for the external test package (golden_odd_test.go), which has
// to live outside package kernels because it also launches csradaptive, an
// importer of this package.
var DigestFields = digestFields

const RaceEnabled = raceEnabled
