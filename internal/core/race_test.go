//go:build race

package core

// raceEnabled reports a -race build, whose instrumentation allocates where
// production code does not, so allocation counts are not checked there.
const raceEnabled = true
