package lsmstore_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/storage"
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

// TestExplicitDefaultPageSizeChargesAlike: PageSize 0 and PageSize 32 KiB
// are one layout (the layout guard records both as 32768), so they are
// charged one cost model. One writer, with maintenance on the caller, runs
// the same workload at both and reads the same ingest time and counters.
func TestExplicitDefaultPageSizeChargesAlike(t *testing.T) {
	run := func(pageSize int) lsmstore.Stats {
		opts := diskOptions(lsmstore.Validation, t.TempDir())
		opts.PageSize = pageSize
		opts.MaintenanceWorkers = 0
		db, err := lsmstore.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		mixedWorkload(t, db, 600, 53)
		st := db.Stats()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return st
	}
	unset, explicit := run(0), run(32<<10)
	if unset.IngestTime != explicit.IngestTime {
		t.Errorf("ingest time: %s at PageSize 0, %s at PageSize 32 KiB", unset.IngestTime, explicit.IngestTime)
	}
	if unset.Counters != explicit.Counters {
		t.Errorf("counters diverge:\n PageSize 0      %+v\n PageSize 32 KiB %+v", unset.Counters, explicit.Counters)
	}
}

// TestDefaultPageSizeRefusesOldDefault: the default page size moved from
// 128 KiB to the paper's 32 KiB SSD page. A directory written at 128 KiB and
// reopened with PageSize unset is refused by the layout guard, with both
// page sizes in the error, and reopens with PageSize set to what it was
// written with.
func TestDefaultPageSizeRefusesOldDefault(t *testing.T) {
	dir := t.TempDir()
	opts := diskOptions(lsmstore.Validation, dir)
	opts.PageSize = 128 << 10
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := mixedWorkload(t, db, 400, 7)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	want := storeImage(t, db, ids, lsmstore.TimestampValidation)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	unset := opts
	unset.PageSize = 0
	if _, err := lsmstore.Open(unset); err == nil {
		t.Fatal("a 128 KiB directory reopened at the default page size")
	} else if msg := err.Error(); !strings.Contains(msg, "PageSize:131072") || !strings.Contains(msg, "PageSize:32768") {
		t.Fatalf("refusal %q does not name both page sizes", msg)
	}

	re, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatalf("reopen with PageSize 128 KiB: %v", err)
	}
	defer re.Close()
	if got := storeImage(t, re, ids, lsmstore.TimestampValidation); got != want {
		t.Fatalf("reopened store diverges:\n got %s\nwant %s", got, want)
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

// TestFileBackendMatchesSim drives the identical workload into a store on
// the figures' simulated device (OpenSimulated) and a file-backed store and
// demands identical visible contents, live and after the file-backed store
// is reopened — the devices must differ only in durability, never in
// semantics. The simulated device has no fsync at all, so it is also the
// reference for group commit: coalescing commit fsyncs changes no visible
// byte. Both stores build the same engine, so after Flush and after the
// reads their engine counters must match too, all but the durable log's,
// which only files keep.
func TestFileBackendMatchesSim(t *testing.T) {
	for _, strategy := range []lsmstore.Strategy{lsmstore.Eager, lsmstore.Validation, lsmstore.MutableBitmap, lsmstore.DeletedKey} {
		t.Run(strategy.String(), func(t *testing.T) {
			sim, err := lsmstore.OpenSimulated(tinyOptions(strategy))
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			diskOpts := diskOptions(strategy, t.TempDir())
			disk, err := lsmstore.Open(diskOpts)
			if err != nil {
				t.Fatal(err)
			}
			simIDs := mixedWorkload(t, sim, 700, 13)
			diskIDs := mixedWorkload(t, disk, 700, 13)
			if err := sim.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := disk.Flush(); err != nil {
				t.Fatal(err)
			}
			sameCounters(t, "after Flush", sim, disk)
			v := validationFor(strategy)
			want := storeImage(t, sim, simIDs, v)
			if got := storeImage(t, disk, diskIDs, v); got != want {
				t.Fatalf("backends diverge:\n disk %s\n sim  %s", got, want)
			}
			sameCounters(t, "after the reads", sim, disk)
			if err := disk.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := lsmstore.Open(diskOpts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			if got := storeImage(t, re, diskIDs, v); got != want {
				t.Fatalf("reopened disk store diverges from sim:\n disk %s\n sim  %s", got, want)
			}
		})
	}
}

// sameCounters fails t unless sim and disk report the same engine
// counters, leaving out the durable log's, which the simulated device
// never moves, and the same virtual clocks: the Store charges one device
// model on both devices.
func sameCounters(t *testing.T, stage string, sim, disk *lsmstore.DB) {
	t.Helper()
	engine := func(db *lsmstore.DB) metrics.Snapshot {
		c := db.Stats().Counters
		c.WALFsyncs, c.GroupCommitBatches, c.GroupCommitWaiters = 0, 0, 0
		return c
	}
	if s, d := engine(sim), engine(disk); s != d {
		t.Fatalf("engine counters diverge %s:\n disk %+v\n sim  %+v", stage, d, s)
	}
	clocks := func(db *lsmstore.DB) [3]string {
		st := db.Stats()
		return [3]string{st.SimulatedTime, st.IngestTime, st.MaintenanceTime}
	}
	if s, d := clocks(sim), clocks(disk); s != d {
		t.Fatalf("virtual clocks (simulated, ingest, maintenance) diverge %s:\n disk %v\n sim  %v", stage, d, s)
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
	ref, err := lsmstore.OpenSimulated(tinyOptions(lsmstore.Validation))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
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

// TestFileBackendUnacknowledgedWALTail plants, behind a cleanly closed
// session's log, what a crash between a write's append and its covering
// fsync can leave: one record that reached the file whole and, after it, one
// the crash tore. Neither write was acknowledged. The whole record is in the
// log, so it is a committed write: the next session replays it and every
// later one keeps serving it. The torn record ends its segment and never
// surfaces, nor does it hide anything the later sessions write.
func TestFileBackendUnacknowledgedWALTail(t *testing.T) {
	dir := t.TempDir()
	db, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
	if err != nil {
		t.Fatal(err)
	}
	mixedWorkload(t, db, 100, 43)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Timestamps newer than everything durable, as a live write's would be.
	wholePK, wholeRec := tweetPK(0xdeadbeef), tweetRec(0xdeadbeef, 1, 1)
	tornPK := tweetPK(0xfeedface)
	tail := wal.AppendRecord(nil, wal.Record{
		LSN: 1 << 40, Type: wal.RecUpsert, Key: wholePK, Value: wholeRec, TS: 1 << 40,
	})
	torn := wal.AppendRecord(nil, wal.Record{
		LSN: 1<<40 + 1, Type: wal.RecUpsert, Key: tornPK, Value: tweetRec(0xfeedface, 1, 1), TS: 1<<40 + 1,
	})
	tail = append(tail, torn[:len(torn)-1]...)
	f, err := os.OpenFile(newestWALSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var ids2 []uint64 // what session 2 wrote, and how it read back there
	var want2 string
	for session := 2; session <= 3; session++ {
		s, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
		if err != nil {
			t.Fatalf("session %d open: %v", session, err)
		}
		if got, found, err := s.Get(wholePK); err != nil || !found || string(got) != string(wholeRec) {
			t.Fatalf("session %d: the whole record at the log tail was not replayed (found=%v, err=%v)", session, found, err)
		}
		if _, found, err := s.Get(tornPK); err != nil || found {
			t.Fatalf("session %d: the torn record surfaced (found=%v, err=%v)", session, found, err)
		}
		if session == 2 {
			ids2 = mixedWorkload(t, s, 50, 102)
			want2 = storeImage(t, s, ids2, lsmstore.TimestampValidation)
		} else if got := storeImage(t, s, ids2, lsmstore.TimestampValidation); got != want2 {
			t.Fatalf("session 2's writes are lost behind the torn record:\n got %s\nwant %s", got, want2)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("session %d close: %v", session, err)
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

// TestEmptyDirIsTempDir: a store opened without a Dir lives in a fresh
// temporary directory — a real, durable store with a layout, whose writes
// survive Crash + Recover — and Close removes the directory. An Open that
// is refused removes the directory it made, too.
func TestEmptyDirIsTempDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	stores := func() []string {
		t.Helper()
		dirs, err := filepath.Glob(filepath.Join(tmp, "lsmstore-*"))
		if err != nil {
			t.Fatal(err)
		}
		return dirs
	}

	db, err := lsmstore.Open(lsmstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dirs := stores()
	if len(dirs) != 1 {
		db.Close()
		t.Fatalf("an open store with an empty Dir made %d lsmstore-* directories, want 1: %v", len(dirs), dirs)
	}
	if _, err := os.Stat(filepath.Join(dirs[0], "layout.json")); err != nil {
		t.Errorf("the temporary directory holds no layout.json: %v", err)
	}
	pk, rec := tweetPK(1), tweetRec(1, 7, 100)
	if err := db.Upsert(pk, rec); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if got, found, err := db.Get(pk); err != nil || !found || string(got) != string(rec) {
		t.Errorf("after Crash + Recover: Get = %x, %v, %v; want %x", got, found, err, rec)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if dirs := stores(); len(dirs) != 0 {
		t.Fatalf("Close left the temporary directory behind: %v", dirs)
	}

	// A refused Open cleans up after itself.
	_, err = lsmstore.Open(lsmstore.Options{
		WrapDevice: func(_ int, dev storage.Device) storage.Device { return pagesOnly{dev} },
	})
	if err == nil {
		t.Fatal("Open accepted a device that is not a storage.Durable")
	}
	if dirs := stores(); len(dirs) != 0 {
		t.Fatalf("a refused Open left its temporary directory behind: %v", dirs)
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

// readLayout returns the layout.json of a file-backed store as a JSON map.
func readLayout(t *testing.T, dir string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "layout.json"))
	if err != nil {
		t.Fatal(err)
	}
	var layout map[string]any
	if err := json.Unmarshal(data, &layout); err != nil {
		t.Fatal(err)
	}
	if _, ok := layout["Format"]; !ok {
		t.Fatalf("the layout.json this build wrote carries no Format: %s", data)
	}
	return layout
}

func writeLayout(t *testing.T, dir string, layout map[string]any) {
	t.Helper()
	data, err := json.Marshal(layout)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "layout.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFileBackendOpensLayoutWithDevice: layout.json stopped carrying the
// simulated device profile without a format bump, so a directory of the
// current format whose layout still names a device ("Device":"hdd", as
// older builds wrote it) must open and serve its data.
func TestFileBackendOpensLayoutWithDevice(t *testing.T) {
	dir := t.TempDir()
	db, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
	if err != nil {
		t.Fatal(err)
	}
	ids := mixedWorkload(t, db, 300, 9)
	want := storeImage(t, db, ids, lsmstore.TimestampValidation)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	layout := readLayout(t, dir)
	layout["Device"] = "hdd"
	writeLayout(t, dir, layout)
	re, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
	if err != nil {
		t.Fatalf("a directory whose layout names a device was refused: %v", err)
	}
	defer re.Close()
	if got := storeImage(t, re, ids, lsmstore.TimestampValidation); got != want {
		t.Fatalf("reopened store diverges:\nwant %.300s\ngot  %.300s", want, got)
	}
}

// TestFileBackendRefusesOtherFormat: layout.json carries the number of the
// on-disk format, and a directory without the current one is refused with an
// error that names it, before any shard opens, and left as it was. Two cases
// matter. A directory from before the number existed has a data record and a
// commit record per write in its log: today's decoder takes such a segment
// for a torn tail, so without the guard the store would open — empty. A
// format-1 directory pads every component page to a fixed slot: today's
// reopen takes the padding after a component's first page for a torn tail.
func TestFileBackendRefusesOtherFormat(t *testing.T) {
	// One acknowledged upsert as the two-record log wrote it: u32 length,
	// LSN, transaction ID, type, flags, timestamp, then index name, key,
	// value and pre-image, each length-prefixed; the commit record (type 4)
	// repeats the transaction ID.
	oldRecord := func(lsn, txn int64, typ byte, ts int64, index string, key, value []byte) []byte {
		body := binary.AppendVarint(nil, lsn)
		body = binary.AppendVarint(body, txn)
		body = append(body, typ, 0)
		body = binary.AppendVarint(body, ts)
		for _, field := range [][]byte{[]byte(index), key, value, nil} {
			body = binary.AppendUvarint(body, uint64(len(field)))
			body = append(body, field...)
		}
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	oldSegment := append(oldRecord(1, 1, 3, 1, "dataset", tweetPK(1), tweetRec(1, 1, 1)),
		oldRecord(2, 1, 4, 0, "", nil, nil)...)
	if _, _, err := wal.DecodeRecord(oldSegment); err == nil {
		t.Fatal("a two-record segment decodes under the one-record layout; the fixture proves nothing")
	}
	twoRecordLog := func(t *testing.T, dir string) {
		if err := os.WriteFile(newestWALSegment(t, dir), oldSegment, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// fixedSlots flushes the acknowledged upsert into components and
	// rewrites every component file as format 1 laid it out: each page's
	// length header and bytes, zero-padded to a PageSize+4 slot.
	fixedSlots := func(t *testing.T, dir string) {
		db, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Upsert(tweetPK(1), tweetRec(1, 1, 1)); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		const header = 4 // the length in front of every page
		slot := header + int(readLayout(t, dir)["PageSize"].(float64))
		paths, err := filepath.Glob(filepath.Join(dir, "shard-*", "c*.lsm"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no component file to rewrite (%v)", err)
		}
		for _, path := range paths {
			pages, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var slots []byte
			for len(pages) > 0 {
				n := header + int(binary.BigEndian.Uint32(pages))
				slots = append(slots, pages[:n]...)
				slots = append(slots, make([]byte, slot-n)...)
				pages = pages[n:]
			}
			if err := os.WriteFile(path, slots, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	// jsonManifest flushes the acknowledged upsert into components and
	// rewrites every shard's MANIFEST as format 2 wrote it: a JSON document
	// carrying each component's Bloom filter, base64-encoded.
	jsonManifest := func(t *testing.T, dir string) {
		db, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Upsert(tweetPK(1), tweetRec(1, 1, 1)); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		paths, err := filepath.Glob(filepath.Join(dir, "shard-*", "MANIFEST"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no manifest to rewrite (%v)", err)
		}
		doc := fmt.Sprintf(`{"Version":1,"Strategy":"validation","PageSize":%v,"Epoch":1,"Clock":1,`+
			`"Trees":[{"Name":"primary","Components":[{"File":1,"MinTS":1,"MaxTS":1,"EpochMin":1,"EpochMax":1,"Bloom":"YmZ2Mg=="}]}]}`,
			readLayout(t, dir)["PageSize"])
		for _, path := range paths {
			if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, c := range []struct {
		name  string
		plant func(*testing.T, string) // what a directory of that format holds
		stamp func(map[string]any)
		names string // what the refusal says the directory holds
	}{
		{"no format number", twoRecordLog, func(l map[string]any) { delete(l, "Format") }, "before formats were numbered"},
		{"format 1 (fixed slots)", fixedSlots, func(l map[string]any) { l["Format"] = 1 }, "fixed slots"},
		{"format 2 (filters in a JSON manifest)", jsonManifest, func(l map[string]any) { l["Format"] = 2 }, "Bloom filters in a JSON manifest"},
		{"a later format", twoRecordLog, func(l map[string]any) { l["Format"] = 99 }, "unknown to this build"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			c.plant(t, dir)
			layout := readLayout(t, dir)
			c.stamp(layout)
			writeLayout(t, dir, layout)
			before := dirFiles(t, dir)

			re, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
			if err == nil {
				_, found, _ := re.Get(tweetPK(1))
				re.Close()
				t.Fatalf("a directory in another format opened (its acknowledged write found=%v)", found)
			}
			if !strings.Contains(err.Error(), "on-disk format") || !strings.Contains(err.Error(), c.names) {
				t.Fatalf("the refusal does not name the format (%q): %v", c.names, err)
			}
			if after := dirFiles(t, dir); !maps.Equal(after, before) {
				t.Fatal("the refused open changed the directory")
			}
		})
	}
}

// dirFiles returns the content of every file under dir by relative path.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		files[strings.TrimPrefix(path, dir)] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
