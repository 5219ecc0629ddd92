//go:build race

package storage_test

// raceEnabled reports a -race build, whose instrumentation moves a file
// read's scratch header to the heap, so reads allocate there that do not in
// production.
const raceEnabled = true
