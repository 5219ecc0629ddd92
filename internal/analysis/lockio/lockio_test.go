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
// only the package path swapped for the fixture's — over a stand-in for
// internal/wal: an append or a rotation under Log.mu is flagged, so a
// default entry that no longer names a method of the log's device fails
// here instead of silently checking nothing.
func TestLockioDefaultsCoverTheLog(t *testing.T) {
	const realWAL, fixtureWAL = "repro/internal/wal.", "repro/internal/analysis/lockio/testdata/src/wal."
	for _, name := range []string{"mutexes", "blocking"} {
		def := lockio.Analyzer.Flags.Lookup(name).DefValue
		if !strings.Contains(def, realWAL) {
			t.Fatalf("default -%s names nothing in %s: %s", name, realWAL, def)
		}
		defer setFlag(t, name, strings.ReplaceAll(def, realWAL, fixtureWAL))()
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
