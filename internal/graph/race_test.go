//go:build race

package graph_test

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own; allocation-count assertions are skipped under it.
const raceEnabled = true
