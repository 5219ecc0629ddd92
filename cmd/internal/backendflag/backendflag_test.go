package backendflag

import (
	"os"
	"strings"
	"testing"

	"repro/lsmstore"
)

func TestResolve(t *testing.T) {
	// The temp-dir case must not leak outside the test's own directory.
	t.Setenv("TMPDIR", t.TempDir())
	given := t.TempDir()
	for _, tc := range []struct {
		name, backend, dir string
		want               lsmstore.Backend
		wantDir            string // "" = none, "tmp" = a fresh temp dir, else exact
		wantErr            string
	}{
		{name: "sim", backend: "sim", want: lsmstore.SimBackend},
		{name: "sim is case-insensitive", backend: "SIM", want: lsmstore.SimBackend},
		{name: "sim with dir", backend: "sim", dir: given, wantErr: "-backend=disk"},
		{name: "disk with dir", backend: "disk", dir: given, want: lsmstore.FileBackend, wantDir: given},
		{name: "disk with temp dir", backend: "disk", want: lsmstore.FileBackend, wantDir: "tmp"},
		{name: "unknown", backend: "tape", wantErr: "unknown -backend"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			be, dir, cleanup, err := Resolve(tc.backend, tc.dir)
			if cleanup == nil {
				t.Fatal("cleanup is nil; callers defer it on every path")
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one naming %q", err, tc.wantErr)
				}
				cleanup()
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if be != tc.want {
				t.Fatalf("backend = %v, want %v", be, tc.want)
			}
			temp := tc.wantDir == "tmp"
			if temp {
				if fi, err := os.Stat(dir); dir == given || err != nil || !fi.IsDir() {
					t.Fatalf("dir = %q (stat err = %v), want a fresh temp dir", dir, err)
				}
			} else if dir != tc.wantDir {
				t.Fatalf("dir = %q, want %q", dir, tc.wantDir)
			}
			cleanup()
			// cleanup removes the directory Resolve made and no other.
			if dir != "" {
				if _, err := os.Stat(dir); temp != os.IsNotExist(err) {
					t.Fatalf("after cleanup: stat %q err = %v (temp dir: %v)", dir, err, temp)
				}
			}
		})
	}
}
