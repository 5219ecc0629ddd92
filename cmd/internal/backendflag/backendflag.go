// Package backendflag resolves the -backend/-dir flag pair shared by the
// repository's benchmark commands onto lsmstore options, so the two tools
// cannot drift in flag semantics or temp-directory lifecycle.
package backendflag

import (
	"fmt"
	"os"
	"strings"

	"repro/lsmstore"
)

// Resolve parses a -backend value ("sim" or "disk", case-insensitive).
// For the disk backend with an empty dir it creates a temporary data
// directory; cleanup removes it (and is a no-op otherwise) — call it on
// every exit path. resolvedDir is the directory to pass as Options.Dir.
// A dir with the sim backend is an error: serving a volatile store to a
// caller who named a directory would lose their data silently.
func Resolve(name, dir string) (backend lsmstore.Backend, resolvedDir string, cleanup func(), err error) {
	nop := func() {}
	switch strings.ToLower(name) {
	case "sim":
		if dir != "" {
			return 0, "", nop, fmt.Errorf("-dir requires -backend=disk (the sim backend keeps nothing in %q)", dir)
		}
		return lsmstore.SimBackend, "", nop, nil
	case "disk":
		if dir != "" {
			return lsmstore.FileBackend, dir, nop, nil
		}
		tmp, err := os.MkdirTemp("", "lsmstore-*")
		if err != nil {
			return 0, "", nop, err
		}
		return lsmstore.FileBackend, tmp, func() { os.RemoveAll(tmp) }, nil
	default:
		return 0, "", nop, fmt.Errorf("unknown -backend %q (want sim or disk)", name)
	}
}
