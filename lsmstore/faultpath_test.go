package lsmstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dst"
	"repro/internal/storage"
	"repro/internal/workload"
	"repro/lsmstore"
)

// The fault-path battery: single scripted storage faults placed exactly on
// the operation under study, via the internal/dst device wrapper over the
// real file backend. Where the dst sweeps explore seeded schedules, these
// tests pin single failure shapes — a failed manifest sync during component
// install, a torn WAL tail on a commit-group boundary, a failed WAL append on
// a single write and mid-batch, a failed covering fsync judged by one crash
// model — plus the Close-persist regression.

// faultStore opens a disk store in dir wrapped with a scripted injector.
// The open itself runs quiet (no injection: Open probes a different
// contract); the returned control is live for everything after.
func faultStore(t *testing.T, dir string, opts lsmstore.Options, script dst.Script) (*lsmstore.DB, *dst.Control) {
	t.Helper()
	control := dst.NewControl(dst.NewTrace(false), script)
	control.SetQuiet(true)
	opts.WrapDevice = control.Wrap
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	control.SetQuiet(false)
	return db, control
}

// countedStore opens a disk store behind a fault-free device wrapper and
// returns a function that reports, per kind, how many device operations
// (dst.OpAppendWAL, dst.OpSyncWAL, dst.OpSaveManifest, ...) ran since its
// previous call — the open itself is not counted.
func countedStore(t *testing.T, opts lsmstore.Options) (*lsmstore.DB, func() map[string]int) {
	t.Helper()
	trace := dst.NewTrace(true)
	opts.WrapDevice = dst.NewControl(trace, dst.NoFaults{}).Wrap
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	seen := trace.Len()
	return db, func() map[string]int {
		events := trace.Events()
		ops := map[string]int{}
		for _, ev := range events[seen:] {
			if op, _, ok := strings.Cut(ev, "/"); ok {
				ops[op]++
			}
		}
		seen = len(events)
		return ops
	}
}

// requireFired fails the test unless at least one scripted fault of the
// given kind actually fired — the guard against a script aimed at an
// operation ordinal that no longer exists.
func requireFired(t *testing.T, control *dst.Control, kind string) {
	t.Helper()
	for _, f := range control.Fired() {
		if f.Fault.Kind == kind && !f.Suppressed {
			return
		}
	}
	t.Fatalf("no %s fault fired; the script missed its target (fired: %v)", kind, control.Fired())
}

// TestFailedManifestInstall fails every write of one step of the flush
// pipeline — a page append of the component build, or the manifest sync of
// the install — at 0 and at 2 maintenance workers, which must agree: the
// flush surfaces the error and it stays sticky, the half-install (component
// files exist, manifest does not reference them) stays invisible, and a
// reopen of the post-failure directory serves exactly the same image as a
// reopen from right before the flush.
func TestFailedManifestInstall(t *testing.T) {
	faults := []struct{ op, kind string }{
		{dst.OpAppendPage, dst.KindPageAppend},
		{dst.OpSaveManifest, dst.KindManifest},
	}
	strategies := []lsmstore.Strategy{lsmstore.Eager, lsmstore.Validation, lsmstore.MutableBitmap, lsmstore.DeletedKey}
	for _, fault := range faults {
		for _, workers := range []int{0, 2} {
			for _, strategy := range strategies {
				t.Run(fmt.Sprintf("%s/workers=%d/%s", fault.kind, workers, strategy), func(t *testing.T) {
					dir := t.TempDir()
					opts := diskOptions(strategy, dir)
					opts.MaintenanceWorkers = workers
					db, control := faultStore(t, dir, opts, dst.Script{
						{Shard: 0, Op: fault.op, Ord: -1, Fault: dst.Fault{Kind: fault.kind}},
					})

					var ids []uint64
					for id := uint64(1); id <= 40; id++ {
						if err := db.Upsert(tweetPK(id), tweetRec(id, uint32(id%7), int64(id))); err != nil {
							t.Fatalf("upsert %d: %v", id, err)
						}
						ids = append(ids, id)
					}

					before := t.TempDir()
					if err := snapshotStoreDir(dir, before); err != nil {
						t.Fatal(err)
					}

					err := db.Flush()
					if err == nil {
						t.Fatalf("flush succeeded although every %s fails", fault.op)
					}
					if !strings.Contains(err.Error(), fault.kind) {
						t.Fatalf("flush error does not trace to the %s fault: %v", fault.kind, err)
					}
					requireFired(t, control, fault.kind)
					if again := db.Flush(); again == nil || again.Error() != err.Error() {
						t.Fatalf("maintenance error is not sticky: first %v, then %v", err, again)
					}

					after := t.TempDir()
					if err := snapshotStoreDir(dir, after); err != nil {
						t.Fatal(err)
					}
					control.Detach()
					_ = db.Close()

					validation := validationFor(strategy)
					wantDB, err := lsmstore.Open(diskOptions(strategy, before))
					if err != nil {
						t.Fatalf("reopen pre-flush image: %v", err)
					}
					want := storeImage(t, wantDB, ids, validation)
					if err := wantDB.Close(); err != nil {
						t.Fatal(err)
					}

					gotDB, err := lsmstore.Open(diskOptions(strategy, after))
					if err != nil {
						t.Fatalf("reopen post-failure image: %v", err)
					}
					got := storeImage(t, gotDB, ids, validation)
					if err := gotDB.Close(); err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("failed install leaked into the reopened image:\n got %s\nwant %s", got, want)
					}
				})
			}
		}
	}
}

// TestFlushWithoutMergeSavesOneManifest: the manifest is saved when the
// component lists change. A flush whose merge pass finds nothing due changed
// them once — the flush install — so it pays one save (data sync, temp
// write, fsync, rename, directory fsync), not a second one for the pass.
func TestFlushWithoutMergeSavesOneManifest(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := diskOptions(lsmstore.Validation, t.TempDir())
			opts.MaintenanceWorkers = workers
			db, ops := countedStore(t, opts)
			defer db.Close()
			for id := uint64(1); id <= 40; id++ {
				if err := db.Upsert(tweetPK(id), tweetRec(id, uint32(id%7), int64(id))); err != nil {
					t.Fatal(err)
				}
			}
			ops()
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if st := db.Stats(); st.Maintenance.Merges != 0 {
				t.Fatalf("the first flush merged %d times; the test needs a flush without a merge", st.Maintenance.Merges)
			}
			if got := ops()[dst.OpSaveManifest]; got != 1 {
				t.Fatalf("a flush that merged nothing saved %d manifests, want 1", got)
			}
		})
	}
}

// TestTornWALTailAtGroupCommitBoundary kills the process on the WAL append
// that starts a new commit group — the tail of the on-disk log lands
// exactly on the durable boundary of the previous covering fsync. Every
// write the previous groups acknowledged must survive a reopen of the crash
// image. A write is one append, so what the unacknowledged write leaves is
// decided by how much of that one record reached the file: torn, it ends the
// segment and is gone; whole, it is in the log and therefore replayed.
func TestTornWALTailAtGroupCommitBoundary(t *testing.T) {
	// Per acknowledged upsert under group commit: one unsynced record
	// append, one covering group fsync.
	const acked = 5
	for _, tc := range []struct {
		name     string
		frac     float64 // share of the record written before the kill
		replayed bool
	}{
		{"record-append", 0.5, false},
		{"whole-append", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := diskOptions(lsmstore.Eager, dir)
			opts.MemoryBudget = 1 << 20 // no flush: the WAL tail is the store
			db, control := faultStore(t, dir, opts, dst.Script{
				{Shard: 0, Op: dst.OpAppendWAL, Ord: acked, Fault: dst.Fault{Kind: dst.KindTornAppend, Frac: tc.frac}},
			})

			for id := uint64(1); id <= acked; id++ {
				if err := db.Upsert(tweetPK(id), tweetRec(id, uint32(id), int64(id))); err != nil {
					t.Fatalf("acked upsert %d: %v", id, err)
				}
			}
			err := db.Upsert(tweetPK(acked+1), tweetRec(acked+1, 9, 99))
			if !errors.Is(err, dst.ErrKilled) {
				t.Fatalf("torn append did not kill the device: err=%v", err)
			}
			requireFired(t, control, dst.KindTornAppend)

			// Freeze the crash image while the device is dead, then abandon
			// the killed store.
			image := t.TempDir()
			if err := snapshotStoreDir(dir, image); err != nil {
				t.Fatal(err)
			}
			control.Detach()
			_ = db.Close()

			re, err := lsmstore.Open(diskOptions(lsmstore.Eager, image))
			if err != nil {
				t.Fatalf("reopen of torn-tail image: %v", err)
			}
			defer func() {
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
			}()
			for id := uint64(1); id <= acked; id++ {
				got, found, err := re.Get(tweetPK(id))
				if err != nil {
					t.Fatal(err)
				}
				if !found || string(got) != string(tweetRec(id, uint32(id), int64(id))) {
					t.Fatalf("acknowledged write %d lost or corrupted after torn tail (found=%v)", id, found)
				}
			}
			if _, found, err := re.Get(tweetPK(acked + 1)); err != nil {
				t.Fatal(err)
			} else if found != tc.replayed {
				t.Fatalf("unacknowledged write with %.0f%% of its record in the file: found=%v, want %v", 100*tc.frac, found, tc.replayed)
			}
		})
	}
}

// TestFailedWALAppend fails one log append — nothing reaches the device —
// on a single Upsert and on the k-th mutation of an ApplyBatch, whose
// records commit together at the end. The failed write returns the error,
// every later write returns it too (the log is wedged), and the failed write
// is served neither after an in-process Crash+Recover nor after a reopen,
// while every write acknowledged before it — the batch's mutations before k
// included, which were reported applied and committed by the batch's
// covering fsync — is.
func TestFailedWALAppend(t *testing.T) {
	const (
		acked = 5 // single upserts acknowledged before the failure
		batch = 5
		k     = 2 // the failing mutation of the batch
	)
	for _, batched := range []bool{false, true} {
		name := "upsert"
		if batched {
			name = "batch"
		}
		t.Run(name, func(t *testing.T) {
			// The writes under study: one upsert, or a batch failing at k.
			muts, fail := make([]lsmstore.Mutation, 1), 0
			if batched {
				muts, fail = make([]lsmstore.Mutation, batch), k
			}
			for i := range muts {
				id := uint64(acked + 1 + i)
				muts[i] = lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: tweetPK(id), Record: tweetRec(id, 7, int64(id))}
			}
			dir := t.TempDir()
			opts := diskOptions(lsmstore.Validation, dir)
			opts.MemoryBudget = 1 << 20 // no flush: the log holds every write
			db, control := faultStore(t, dir, opts, dst.Script{
				{Shard: 0, Op: dst.OpAppendWAL, Ord: int64(acked + fail), Fault: dst.Fault{Kind: dst.KindWALAppend}},
			})

			want := map[uint64][]byte{} // acknowledged: served to the end
			for id := uint64(1); id <= acked; id++ {
				want[id] = tweetRec(id, uint32(id), int64(id))
				if err := db.Upsert(tweetPK(id), want[id]); err != nil {
					t.Fatalf("acked upsert %d: %v", id, err)
				}
			}
			applied := make([]bool, len(muts))
			var err error
			if batched {
				applied, err = db.ApplyBatchResults(muts)
			} else {
				err = db.Upsert(muts[0].PK, muts[0].Record)
			}
			requireFired(t, control, dst.KindWALAppend)
			if err == nil || !strings.Contains(err.Error(), dst.KindWALAppend) {
				t.Fatalf("failed append returned %v, want the injected %s fault", err, dst.KindWALAppend)
			}
			lost := []uint64{100} // failed, never logged or refused: never served
			for i, m := range muts {
				if applied[i] != (i < fail) {
					t.Fatalf("mutation %d reported applied=%v; want only the %d before the failed append", i, applied[i], fail)
				}
				if i < fail {
					want[uint64(acked+1+i)] = m.Record
				} else {
					lost = append(lost, uint64(acked+1+i))
				}
			}
			if next := db.Upsert(tweetPK(100), tweetRec(100, 1, 1)); next == nil || !strings.Contains(next.Error(), dst.KindWALAppend) {
				t.Fatalf("the write after the failed append returned %v, want the sticky %s error", next, dst.KindWALAppend)
			}

			served := func(when string, db *lsmstore.DB) {
				t.Helper()
				for id, rec := range want {
					got, found, err := db.Get(tweetPK(id))
					if err != nil || !found || !bytes.Equal(got, rec) {
						t.Fatalf("%s: acknowledged write %d not served (found=%v err=%v)", when, id, found, err)
					}
				}
				for _, id := range lost {
					if _, found, err := db.Get(tweetPK(id)); err != nil || found {
						t.Fatalf("%s: write %d whose append failed or never ran is served (found=%v err=%v)", when, id, found, err)
					}
				}
			}
			db.Crash()
			if err := db.Recover(); err != nil {
				t.Fatal(err)
			}
			served("after crash+recover", db)
			control.Detach()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			served("after reopen", re)
		})
	}
}

// TestFailedCoveringFsyncOneCrashModel fails the covering fsync of a single
// Upsert and of an ApplyBatch, then snapshots the directory. The failed
// writes' records are whole in the log file, so each is "not guaranteed",
// never "certainly absent" — and every crash must decide it the same way,
// because every recovery reads the log the device holds: an in-process
// Crash+Recover and a reopen of the snapshot serve each failed write in
// both or in neither. Every write acknowledged before them is served in
// both.
func TestFailedCoveringFsyncOneCrashModel(t *testing.T) {
	const acked = 5 // single upserts acknowledged before the failure, one fsync each
	for _, batched := range []bool{false, true} {
		name, n := "upsert", 1
		if batched {
			name, n = "batch", 4
		}
		t.Run(name, func(t *testing.T) {
			muts := make([]lsmstore.Mutation, n)
			for i := range muts {
				id := uint64(acked + 1 + i)
				muts[i] = lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: tweetPK(id), Record: tweetRec(id, 7, int64(id))}
			}
			dir := t.TempDir()
			opts := diskOptions(lsmstore.Validation, dir)
			opts.MemoryBudget = 1 << 20 // no flush: the log holds every write
			db, control := faultStore(t, dir, opts, dst.Script{
				{Shard: 0, Op: dst.OpSyncWAL, Ord: acked, Fault: dst.Fault{Kind: dst.KindSyncWAL}},
			})
			for id := uint64(1); id <= acked; id++ {
				if err := db.Upsert(tweetPK(id), tweetRec(id, uint32(id), int64(id))); err != nil {
					t.Fatalf("acked upsert %d: %v", id, err)
				}
			}
			var err error
			if batched {
				_, err = db.ApplyBatchResults(muts)
			} else {
				err = db.Upsert(muts[0].PK, muts[0].Record)
			}
			requireFired(t, control, dst.KindSyncWAL)
			if err == nil || !strings.Contains(err.Error(), dst.KindSyncWAL) {
				t.Fatalf("failed covering fsync returned %v, want the injected %s fault", err, dst.KindSyncWAL)
			}
			image := t.TempDir()
			if err := snapshotStoreDir(dir, image); err != nil {
				t.Fatal(err)
			}

			// served checks the acknowledged writes and reports, per failed
			// write, whether it is served (and then with its own bytes).
			served := func(when string, db *lsmstore.DB) []bool {
				t.Helper()
				for id := uint64(1); id <= acked; id++ {
					got, found, err := db.Get(tweetPK(id))
					if err != nil || !found || !bytes.Equal(got, tweetRec(id, uint32(id), int64(id))) {
						t.Fatalf("%s: acknowledged write %d not served (found=%v err=%v)", when, id, found, err)
					}
				}
				out := make([]bool, len(muts))
				for i, m := range muts {
					got, found, err := db.Get(m.PK)
					if err != nil || found && !bytes.Equal(got, m.Record) {
						t.Fatalf("%s: failed write %d served wrong bytes (err=%v)", when, i, err)
					}
					out[i] = found
				}
				return out
			}
			db.Crash()
			if err := db.Recover(); err != nil {
				t.Fatal(err)
			}
			inSession := served("after crash+recover", db)
			control.Detach()
			_ = db.Close() // the log is wedged; the snapshot is the crash image
			re, err := lsmstore.Open(diskOptions(lsmstore.Validation, image))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if reopened := served("after reopen", re); !slices.Equal(inSession, reopened) {
				t.Fatalf("failed writes served %v after an in-process crash+recover but %v after a reopen: two crash models", inSession, reopened)
			}
		})
	}
}

// TestClosePersistFailureKeepsWAL is the regression test for the Close
// path: when Close's final persist fails (manifest install error), Close
// must NOT cut the WAL — the log is the only durable copy of the
// memtable it just failed to persist. A reopen of the same directory must
// replay every acknowledged write.
func TestClosePersistFailureKeepsWAL(t *testing.T) {
	dir := t.TempDir()
	opts := diskOptions(lsmstore.Validation, dir)
	opts.MemoryBudget = 1 << 20 // keep everything in the memtable until Close
	db, control := faultStore(t, dir, opts, dst.Script{
		{Shard: 0, Op: dst.OpSaveManifest, Ord: -1, Fault: dst.Fault{Kind: dst.KindManifest}},
	})

	const n = 10
	for id := uint64(1); id <= n; id++ {
		if err := db.Upsert(tweetPK(id), tweetRec(id, 3, int64(id))); err != nil {
			t.Fatalf("upsert %d: %v", id, err)
		}
	}
	err := db.Close()
	if err == nil {
		t.Fatal("close succeeded although its persist cannot install a manifest")
	}
	requireFired(t, control, dst.KindManifest)
	control.Detach()

	re, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
	if err != nil {
		t.Fatalf("reopen after failed close persist: %v", err)
	}
	for id := uint64(1); id <= n; id++ {
		got, found, err := re.Get(tweetPK(id))
		if err != nil {
			t.Fatal(err)
		}
		if !found || string(got) != string(tweetRec(id, 3, int64(id))) {
			t.Fatalf("acknowledged write %d lost after failed close persist (found=%v)", id, found)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestKillAtReclaimPoints kills the process exactly at each device
// operation reclamation added — the first unlink after a manifest install,
// the operation right after a log rotation, the first segment drop after a
// manifest, and the second of two back-to-back drops — and reopens the
// directory the dead process left: every acknowledged write is served.
// A dry run of the same deterministic workload (no workers, so the device
// sees one fixed operation sequence) finds the operation numbers.
func TestKillAtReclaimPoints(t *testing.T) {
	// Session one leaves a log segment behind, so session two's first cut
	// drops two segments back to back.
	seed := func(dir string) {
		db, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(1); id <= 20; id++ {
			if err := db.Upsert(tweetPK(id), tweetRec(id, uint32(id%7), 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// run drives session two until the workload ends or the device dies and
	// returns the op trace and the writes acknowledged, by key.
	run := func(dir string, killAt int64) ([]string, map[uint64][]byte) {
		seed(dir)
		trace := dst.NewTrace(true)
		control := dst.NewControl(trace, dst.NoFaults{})
		control.SetKillAfter(killAt)
		opts := diskOptions(lsmstore.Validation, dir)
		opts.WrapDevice = control.Wrap
		db, err := lsmstore.Open(opts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		acked := map[uint64][]byte{}
		for i := 0; i < 4000; i++ {
			id := uint64(1 + i%700)
			rec := tweetRec(id, uint32(id%7), int64(i+2))
			if err := db.Upsert(tweetPK(id), rec); err != nil {
				if !errors.Is(err, dst.ErrKilled) {
					t.Fatalf("write %d failed without a kill: %v", i, err)
				}
				break
			}
			acked[id] = rec
		}
		if killAt > 0 && !control.Killed() {
			t.Fatalf("the workload ended before device operation %d", killAt)
		}
		control.Detach()
		_ = db.Close()
		return trace.Events(), acked
	}

	// Number the device operations of the dry run the way Control does.
	counted := []string{dst.OpDelete, dst.OpAppendPage, dst.OpAppendWAL, dst.OpSyncWAL, dst.OpRotateWAL, dst.OpDropWAL, dst.OpSaveManifest}
	var ops []string
	events, _ := run(t.TempDir(), 0)
	for _, ev := range events {
		if op, _, ok := strings.Cut(ev, "/"); ok && slices.Contains(counted, op) {
			ops = append(ops, op)
		}
	}
	find := func(match func(i int) bool) int64 {
		for i := 1; i < len(ops); i++ {
			if match(i) {
				return int64(i + 1) // operations are numbered from 1
			}
		}
		t.Fatalf("the dry run never reaches the operation under study (%d operations)", len(ops))
		return 0
	}
	points := map[string]int64{
		"manifest-then-unlink": find(func(i int) bool { return ops[i] == dst.OpDelete && ops[i-1] == dst.OpSaveManifest }),
		"rotate-then-append":   find(func(i int) bool { return ops[i-1] == dst.OpRotateWAL && i > 2 }), // past the rotation Open does
		"manifest-then-drop":   find(func(i int) bool { return ops[i] == dst.OpDropWAL && ops[i-1] == dst.OpSaveManifest }),
		"mid-drop":             find(func(i int) bool { return ops[i] == dst.OpDropWAL && ops[i-1] == dst.OpDropWAL }),
	}
	for name, killAt := range points {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			_, acked := run(dir, killAt)
			// Every acknowledged commit was fsynced before its Upsert
			// returned, so the directory as it stands is the crash image.
			re, err := lsmstore.Open(diskOptions(lsmstore.Validation, dir))
			if err != nil {
				t.Fatalf("reopen after a kill at device operation %d: %v", killAt, err)
			}
			defer re.Close()
			for id, want := range acked {
				got, found, err := re.Get(tweetPK(id))
				if err != nil || !found {
					t.Fatalf("acknowledged key %d after a kill at operation %d: found=%v err=%v", id, killAt, found, err)
				}
				// The write the kill interrupted may have reached the log.
				if wantV, _ := workload.CreationOf(want); !bytes.Equal(got, want) {
					if gotV, _ := workload.CreationOf(got); gotV < wantV {
						t.Fatalf("key %d rolled back to version %d, acknowledged at %d", id, gotV, wantV)
					}
				}
			}
		})
	}
}

// pagesOnly is a WrapDevice result that forgot the durable half: embedding
// storage.Device promotes the page and log-area methods and nothing else.
type pagesOnly struct{ storage.Device }

// TestWrapDeviceMustStayDurable: a wrapper that returns a device without the
// manifest must be refused by Open, by name — it used
// to open a store that persisted nothing and said nothing. The refused open
// leaves the directory usable.
func TestWrapDeviceMustStayDurable(t *testing.T) {
	opts := diskOptions(lsmstore.Validation, t.TempDir())
	opts.Shards = 2
	opts.WrapDevice = func(shard int, dev storage.Device) storage.Device {
		if shard == 1 {
			return pagesOnly{dev}
		}
		return dev
	}
	db, err := lsmstore.Open(opts)
	if err == nil {
		db.Close()
		t.Fatal("Open accepted a shard whose device is not a storage.Durable")
	}
	for _, want := range []string{"Options.WrapDevice", "shard 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Open error %q does not name %q", err, want)
		}
	}
	// Both shard directories were released, the refused one included.
	opts.WrapDevice = nil
	db, err = lsmstore.Open(opts)
	if err != nil {
		t.Fatalf("open after the refusal: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
