//go:build !race

package acesim_test

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own; allocation-count assertions are skipped under it.
const raceEnabled = false
