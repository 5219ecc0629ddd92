//go:build race

package query

// raceEnabled reports a -race build, where sync.Pool drops a random quarter
// of its Puts on purpose, so a query that finds no recycled scratch
// allocates one.
const raceEnabled = true
