//go:build race

package lsmstore_test

// raceEnabled reports a -race build, where sync.Pool drops a random quarter
// of its Puts on purpose, so pooled reads allocate more than they do in
// production.
const raceEnabled = true
