package lockio_test

import (
	"strings"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/lockio"
)

const fixture = "repro/internal/analysis/lockio/testdata/src/a"

func TestLockio(t *testing.T) {
	defer setFlag(t, "mutexes", fixture+".Guarded.mu")()
	defer setFlag(t, "blocking", fixture+".Sink.Append")()
	analysistest.Run(t, "testdata", lockio.Analyzer, "./src/a")
}

// TestLockioDefaultsCoverTheLog runs the analyzer with its default lists —
// only the package paths swapped for the fixtures' — over a stand-in for
// internal/wal and the storage.Device it writes to: an append or a
// rotation under Log.mu is flagged, so a default entry that no longer names
// a method of the log's device fails here instead of silently checking
// nothing.
func TestLockioDefaultsCoverTheLog(t *testing.T) {
	const fixtures = "repro/internal/analysis/lockio/testdata/src/"
	swap := strings.NewReplacer("repro/internal/wal.", fixtures+"wal.", "repro/internal/storage.", fixtures+"storage.")
	for name, real := range map[string][]string{
		"mutexes":  {"repro/internal/wal."},
		"blocking": {"repro/internal/wal.", "repro/internal/storage."},
	} {
		def := lockio.Analyzer.Flags.Lookup(name).DefValue
		for _, pkg := range real {
			if !strings.Contains(def, pkg) {
				t.Fatalf("default -%s names nothing in %s: %s", name, pkg, def)
			}
		}
		defer setFlag(t, name, swap.Replace(def))()
	}
	analysistest.Run(t, "testdata", lockio.Analyzer, "./src/wal")
}

func setFlag(t *testing.T, name, value string) (restore func()) {
	t.Helper()
	f := lockio.Analyzer.Flags.Lookup(name)
	if f == nil {
		t.Fatalf("no flag %q", name)
	}
	old := f.Value.String()
	if err := f.Value.Set(value); err != nil {
		t.Fatal(err)
	}
	return func() { f.Value.Set(old) }
}
