//go:build !race

package lsmclient

const raceEnabled = false
