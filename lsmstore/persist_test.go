package lsmstore_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
	"repro/lsmstore"
)

// The file-backend durability battery: everything a previous process
// committed — whether it Closed cleanly or crashed — must be served again
// after lsmstore.Open on the same directory, and the recovered store must
// answer every read path exactly like a never-restarted one.

// The shared fixtures — diskOptions, storeImage, mixedWorkload,
// snapshotStoreDir, the acknowledged-write ledger — live in
// internal/storetest (see helpers_test.go for the local names).

// TestFileBackendReopenAfterClose writes, flushes, closes, reopens, and
// demands an identical image from every read path — for every strategy,
// since each persists different auxiliary state (bitmaps, deleted-key
// trees, repair watermarks).
func TestFileBackendReopenAfterClose(t *testing.T) {
	for _, strategy := range []lsmstore.Strategy{lsmstore.Eager, lsmstore.Validation, lsmstore.MutableBitmap, lsmstore.DeletedKey} {
		t.Run(strategy.String(), func(t *testing.T) {
			dir := t.TempDir()
			db, err := lsmstore.Open(diskOptions(strategy, dir))
			if err != nil {
				t.Fatal(err)
			}
			ids := mixedWorkload(t, db, 900, 17)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			want := storeImage(t, db, ids, validationFor(strategy))
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := lsmstore.Open(diskOptions(strategy, dir))
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			if got := storeImage(t, re, ids, validationFor(strategy)); got != want {
				t.Fatalf("reopened image diverges:\n got %s\nwant %s", got, want)
			}
			// The reopened store must keep working: write more, flush, read.
			mixedWorkload(t, re, 200, 99)
			if err := re.Flush(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFileBackendCrashRecovery abandons the store without Close — memory
// components, batch buffers and all — so reopening exercises WAL replay on
// top of the last durable manifest, exactly what a process kill leaves.
func TestFileBackendCrashRecovery(t *testing.T) {
	for _, strategy := range []lsmstore.Strategy{lsmstore.Eager, lsmstore.Validation, lsmstore.MutableBitmap, lsmstore.DeletedKey} {
		t.Run(strategy.String(), func(t *testing.T) {
			dir := t.TempDir()
			db, err := lsmstore.Open(diskOptions(strategy, dir))
			if err != nil {
				t.Fatal(err)
			}
			ids := mixedWorkload(t, db, 500, 23)
			// A flush makes a durable manifest mid-history, so replay must
			// start from real components, not an empty store.
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			more := mixedWorkload(t, db, 300, 41) // tail lives only in the WAL
			want := storeImage(t, db, ids, validationFor(strategy))
			wantMore := storeImage(t, db, more, validationFor(strategy))
			// No Close: the process "dies" here. Committed writes are on
			// disk (WAL fsynced at commit); everything else is lost. The
			// abandoned store still holds the directory flock (in a real
			// kill the kernel would release it), so recovery opens a crash
			// image of the directory, exactly like a restarted machine.
			snap := t.TempDir()
			if err := snapshotStoreDir(dir, snap); err != nil {
				t.Fatal(err)
			}

			re, err := lsmstore.Open(diskOptions(strategy, snap))
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer re.Close()
			if got := storeImage(t, re, ids, validationFor(strategy)); got != want {
				t.Fatalf("recovered image diverges:\n got %s\nwant %s", got, want)
			}
			if got := storeImage(t, re, more, validationFor(strategy)); got != wantMore {
				t.Fatalf("WAL-replayed tail diverges:\n got %s\nwant %s", got, wantMore)
			}
		})
	}
}

// TestFileBackendShardedReopen checks per-shard directories round-trip and
// that a wrong shard count is refused instead of silently mis-routing.
// Shards 0 and 1 are the same one-partition layout, so each reopens the
// other's directory.
func TestFileBackendShardedReopen(t *testing.T) {
	for _, tc := range []struct{ shards, reopenAs int }{{0, 1}, {1, 0}, {4, 4}} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			dir := t.TempDir()
			opts := diskOptions(lsmstore.Validation, dir)
			opts.Shards = tc.shards
			db, err := lsmstore.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			ids := mixedWorkload(t, db, 800, 31)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			want := storeImage(t, db, ids, lsmstore.TimestampValidation)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(dir, "shard-0000")); err != nil {
				t.Fatalf("partition 0 does not live in shard-0000: %v", err)
			}

			wrong := opts
			wrong.Shards = 2
			if _, err := lsmstore.Open(wrong); err == nil {
				t.Fatal("reopen with a different shard count was accepted")
			}

			opts.Shards = tc.reopenAs
			re, err := lsmstore.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := storeImage(t, re, ids, lsmstore.TimestampValidation); got != want {
				t.Fatalf("sharded reopen diverges:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestFileBackendAbandonsPartialInstalls plants orphan component files —
// the state a crash leaves when it lands between the data sync and the
// manifest rename of a flush or merge install — and demands that reopen
// drops them and serves exactly the manifest's state.
func TestFileBackendAbandonsPartialInstalls(t *testing.T) {
	dir := t.TempDir()
	db, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
	if err != nil {
		t.Fatal(err)
	}
	ids := mixedWorkload(t, db, 500, 7)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	want := storeImage(t, db, ids, lsmstore.TimestampValidation)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	shardDir := filepath.Join(dir, "shard-0000")
	// A half-written merge output: a copy of a live component under a
	// never-installed file ID, plus a zero-page torn one.
	entries, err := os.ReadDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	var donor string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "c") && strings.HasSuffix(e.Name(), ".lsm") {
			donor = filepath.Join(shardDir, e.Name())
			break
		}
	}
	if donor == "" {
		t.Fatal("no component file found to clone")
	}
	orphan := filepath.Join(shardDir, "c99999990.lsm")
	if err := copyFile(donor, orphan); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(shardDir, "c99999991.lsm")
	if err := os.WriteFile(torn, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
	if err != nil {
		t.Fatalf("reopen with orphans: %v", err)
	}
	defer re.Close()
	if got := storeImage(t, re, ids, lsmstore.TimestampValidation); got != want {
		t.Fatalf("image diverges after orphan GC:\n got %s\nwant %s", got, want)
	}
	for _, p := range []string{orphan, torn} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived reopen (err=%v)", p, err)
		}
	}
}

// TestFileBackendMatchesSim drives the identical workload into a simulated
// store and a file-backed store and demands identical visible contents —
// the backends must differ only in durability, never in semantics.
func TestFileBackendMatchesSim(t *testing.T) {
	for _, strategy := range []lsmstore.Strategy{lsmstore.Eager, lsmstore.Validation, lsmstore.MutableBitmap} {
		t.Run(strategy.String(), func(t *testing.T) {
			simOpts := tinyOptions(strategy)
			simOpts.Backend = lsmstore.SimBackend
			simOpts.Dir = ""
			sim, err := lsmstore.Open(simOpts)
			if err != nil {
				t.Fatal(err)
			}
			disk, err := lsmstore.Open(diskOptions(strategy, t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()
			simIDs := mixedWorkload(t, sim, 700, 13)
			diskIDs := mixedWorkload(t, disk, 700, 13)
			if err := sim.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := disk.Flush(); err != nil {
				t.Fatal(err)
			}
			v := validationFor(strategy)
			if got, want := storeImage(t, disk, diskIDs, v), storeImage(t, sim, simIDs, v); got != want {
				t.Fatalf("backends diverge:\n disk %s\n sim  %s", got, want)
			}
		})
	}
}

// TestFileBackendKillMidMaintenance mirrors the simulated kill-mid-flush /
// mid-merge battery on real files: with background maintenance running, a
// crash image of the directory is captured while builds and merges are in
// flight (manifest and WAL first, then component files — the order crash
// consistency guarantees make safe: a referenced file never changes after
// the manifest references it). Reopening the image must succeed, abandon
// any partial installs, and serve every write acknowledged before the
// snapshot began.
func TestFileBackendKillMidMaintenance(t *testing.T) {
	dir := t.TempDir()
	opts := diskOptions(lsmstore.Validation, dir)
	opts.MaintenanceWorkers = 2
	opts.MemoryBudget = 16 << 10 // many background flushes and merges
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: acknowledged before the snapshot — must survive.
	ids := mixedWorkload(t, db, 600, 53)

	snap := t.TempDir()
	if err := snapshotStoreDir(dir, snap); err != nil {
		t.Fatal(err)
	}
	// Phase 2: concurrent with and after the snapshot — may or may not be
	// in the image; the reopen must stay consistent regardless.
	mixedWorkload(t, db, 400, 67)
	// The original process "dies": no Close, background jobs abandoned.

	re, err := lsmstore.Open(diskOptions(lsmstore.Validation, snap))
	if err != nil {
		t.Fatalf("reopen of crash image: %v", err)
	}
	defer re.Close()
	// Every phase-1 write was committed (WAL fsynced) before the snapshot
	// copied the WAL, so the recovered store must serve all of them. The
	// expected values come from a clean replay of the same deterministic
	// stream into a fresh simulated store.
	refOpts := tinyOptions(lsmstore.Validation)
	refOpts.Backend = lsmstore.SimBackend
	refOpts.Dir = ""
	ref, err := lsmstore.Open(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	mixedWorkload(t, ref, 600, 53)
	want := storeImage(t, ref, ids, lsmstore.TimestampValidation)
	if got := storeImage(t, re, ids, lsmstore.TimestampValidation); got != want {
		t.Fatalf("crash image lost acknowledged writes:\n got %s\nwant %s", got, want)
	}
}

// TestFileBackendTornWALTailThenMoreSessions is the regression test for a
// subtle loss mode: session 1 crashes mid-append leaving a torn record at
// the WAL tail; session 2 must not append behind that garbage, or every
// write it commits would be unreadable to session 3.
func TestFileBackendTornWALTailThenMoreSessions(t *testing.T) {
	dir := t.TempDir()
	db, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
	if err != nil {
		t.Fatal(err)
	}
	ids := mixedWorkload(t, db, 200, 11)
	// Session 1 "crashes": no Close, and the kernel flushed half a record.
	// The crashed owner's flock would be released by the kernel; simulate
	// the post-crash disk with an image copy.
	snap := t.TempDir()
	if err := snapshotStoreDir(dir, snap); err != nil {
		t.Fatal(err)
	}
	dir = snap
	f, err := os.OpenFile(newestWALSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 1, 200, 77, 3}); err != nil { // torn: claims a 456-byte body
		t.Fatal(err)
	}
	f.Close()

	s2, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
	if err != nil {
		t.Fatalf("session 2 open: %v", err)
	}
	ids2 := mixedWorkload(t, s2, 200, 29)
	want := storeImage(t, s2, ids, lsmstore.TimestampValidation)
	want2 := storeImage(t, s2, ids2, lsmstore.TimestampValidation)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
	if err != nil {
		t.Fatalf("session 3 open: %v", err)
	}
	defer s3.Close()
	if got := storeImage(t, s3, ids, lsmstore.TimestampValidation); got != want {
		t.Fatalf("session 1 data lost behind torn tail:\n got %s\nwant %s", got, want)
	}
	if got := storeImage(t, s3, ids2, lsmstore.TimestampValidation); got != want2 {
		t.Fatalf("session 2 data lost behind torn tail:\n got %s\nwant %s", got, want2)
	}
}

// TestFileBackendWALCompaction: once a flush makes writes durable in
// components, the on-disk WAL must be cut to the un-flushed tail instead of
// retaining the store's whole history — and a clean Close leaves it there.
func TestFileBackendWALCompaction(t *testing.T) {
	dir := t.TempDir()
	db, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
	if err != nil {
		t.Fatal(err)
	}
	mixedWorkload(t, db, 600, 19)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "shard-0000", "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("WAL segments after flush+close = %v (%v), want the live one alone", segs, err)
	}
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("WAL holds %d bytes after flush+close, want 0 (everything is in components)", st.Size())
	}
}

// TestFileBackendUncommittedWALRecordNeverResurrects plants a data record
// with no commit at the WAL tail (a crash between the data append and the
// commit fsync — the write was never acknowledged). No later session may
// ever surface it, even after new sessions write fresh transactions whose
// IDs could otherwise collide with the dead record's.
func TestFileBackendUncommittedWALRecordNeverResurrects(t *testing.T) {
	dir := t.TempDir()
	db, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
	if err != nil {
		t.Fatal(err)
	}
	mixedWorkload(t, db, 100, 43)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The dead record: huge TS (newer than everything durable), low TxnID
	// (guaranteed to be recycled by the next session's first transactions).
	ghostPK := tweetPK(0xdeadbeef)
	ghost := wal.AppendRecord(nil, wal.Record{
		LSN: 1 << 40, TxnID: 1, Type: wal.RecUpsert, Index: "dataset",
		Key: ghostPK, Value: tweetRec(0xdeadbeef, 1, 1), TS: 1 << 40,
	})
	f, err := os.OpenFile(newestWALSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(ghost); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for session := 2; session <= 3; session++ {
		s, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
		if err != nil {
			t.Fatalf("session %d open: %v", session, err)
		}
		if _, found, err := s.Get(ghostPK); err != nil || found {
			t.Fatalf("session %d: uncommitted ghost record surfaced (found=%v, err=%v)", session, found, err)
		}
		// New writes recycle low transaction IDs in a fresh process — they
		// must never marry the ghost's data record to their commits.
		mixedWorkload(t, s, 50, int64(100+session))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileBackendRefusesDoubleOpen: a second live store on the same
// directory would rename-replace the first one's WAL and clobber its
// manifest saves; the per-directory lock must refuse it, and a clean Close
// must release it.
func TestFileBackendRefusesDoubleOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir)); err == nil {
		t.Fatal("second Open of a live directory was accepted")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	re.Close()
}

// TestFileBackendRequiresDir pins the errors for options the file backend
// cannot honor: a missing data directory, and a disabled WAL, which would
// silently lose durability.
func TestFileBackendRequiresDir(t *testing.T) {
	if _, err := lsmstore.Open(lsmstore.Options{Backend: lsmstore.FileBackend}); err == nil {
		t.Fatal("FileBackend without Dir was accepted")
	}
	if _, err := lsmstore.Open(lsmstore.Options{Backend: lsmstore.FileBackend, Dir: t.TempDir(), DisableWAL: true}); err == nil {
		t.Fatal("FileBackend without a WAL was accepted")
	}
}

// TestFileBackendStrategyMismatchRefused: a directory written under one
// strategy must not silently open under another (their auxiliary state is
// incompatible).
func TestFileBackendStrategyMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	db, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
	if err != nil {
		t.Fatal(err)
	}
	mixedWorkload(t, db, 200, 3)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := lsmstore.Open(diskOptions(lsmstore.Eager, dir)); err == nil {
		t.Fatal("strategy mismatch on reopen was accepted")
	}
}
