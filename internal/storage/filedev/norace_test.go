//go:build !race

package filedev

const raceEnabled = false
