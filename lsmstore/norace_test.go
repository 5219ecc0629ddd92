//go:build !race

package lsmstore_test

const raceEnabled = false
