package lsmstore_test

import (
	"path/filepath"
	"testing"

	"repro/internal/storetest"
	"repro/lsmstore"
)

// The battery fixtures live in internal/storetest; these thin
// names keep the test files readable.

// tinyOptions is the small store every functional test uses, in a
// temporary directory its Close removes.
func tinyOptions(strategy lsmstore.Strategy) lsmstore.Options {
	return storetest.BaseOptions(strategy)
}

// diskOptions is tinyOptions in dir, for a test that reopens the directory
// or inspects its files.
func diskOptions(strategy lsmstore.Strategy, dir string) lsmstore.Options {
	return storetest.DiskOptions(strategy, dir)
}

func tweetPK(id uint64) []byte { return storetest.TweetPK(id) }

func tweetRec(id uint64, user uint32, creation int64) []byte {
	return storetest.TweetRec(id, user, creation)
}

func validationFor(s lsmstore.Strategy) lsmstore.ValidationMethod {
	return storetest.ValidationFor(s)
}

func storeImage(t *testing.T, db *lsmstore.DB, ids []uint64, validation lsmstore.ValidationMethod) string {
	t.Helper()
	return storetest.StoreImage(t, db, ids, validation)
}

func mixedWorkload(t *testing.T, db *lsmstore.DB, n int, seed int64) []uint64 {
	t.Helper()
	return storetest.MixedWorkload(t, db, n, seed)
}

func snapshotStoreDir(src, dst string) error { return storetest.SnapshotStoreDir(src, dst) }

// newestWALSegment returns the path of shard 0's newest log segment: the
// one a crashed session was appending to.
func newestWALSegment(t testing.TB, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "shard-0000", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no log segment under %s (%v)", dir, err)
	}
	return segs[len(segs)-1] // Glob sorts; the numbers are zero-padded
}

func copyFile(src, dst string) error { return storetest.CopyFile(src, dst) }
