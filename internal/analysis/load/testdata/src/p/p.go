// Package p is the loader's test fixture: a package with an internal test
// file and an external test package.
package p

func double(n int) int { return 2 * n }
