package lsmstore_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dst"
	"repro/internal/storetest"
	"repro/lsmstore"
)

// The group-commit battery: coalescing commit fsyncs must change
// throughput, never semantics — the store's visible contents are identical
// whether commits share fsyncs or each pays its own, an acknowledged write
// survives a kill even when its fsync covered a whole group, a batch pays
// one fsync, and a lone writer is never stranded waiting for followers that
// are not coming. That the file backend's contents match the simulated
// backend's, which has no fsync at all, is TestFileBackendMatchesSim.

// TestGroupCommitOnOffEquivalence drives the identical deterministic
// workload with commit coalescing on and off — for every strategy, live and
// after a reopen — and demands identical images from every read path. "on"
// applies the stream in batches, whose writes share one covering fsync;
// "off" applies it one write at a time, so each write is a lone committer
// that pays its own fsync. Mutable-bitmap batches commit one record at a
// time, so for that strategy both runs pay an fsync per write.
func TestGroupCommitOnOffEquivalence(t *testing.T) {
	const n, seed, batch = 700, 37, 50
	for _, strategy := range []lsmstore.Strategy{lsmstore.Eager, lsmstore.Validation, lsmstore.MutableBitmap, lsmstore.DeletedKey} {
		t.Run(strategy.String(), func(t *testing.T) {
			type run struct {
				live, reopened string
				fsyncs         int64
			}
			images := map[string]run{}
			for _, mode := range []string{"on", "off"} {
				opts := diskOptions(strategy, t.TempDir())
				db, err := lsmstore.Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				before := db.Stats().Counters
				var ids []uint64
				if mode == "on" {
					var muts []lsmstore.Mutation
					muts, ids = storetest.MixedMutations(n, seed)
					for len(muts) > 0 {
						k := min(batch, len(muts))
						if err := db.ApplyBatch(muts[:k]); err != nil {
							t.Fatal(err)
						}
						muts = muts[k:]
					}
				} else {
					ids = mixedWorkload(t, db, n, seed)
				}
				fsyncs := db.Stats().Counters.Sub(before).WALFsyncs
				live := storeImage(t, db, ids, validationFor(strategy))
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := lsmstore.Open(opts)
				if err != nil {
					t.Fatalf("reopen (%s): %v", mode, err)
				}
				reopened := storeImage(t, re, ids, validationFor(strategy))
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
				images[mode] = run{live: live, reopened: reopened, fsyncs: fsyncs}
			}
			on, off := images["on"], images["off"]
			if strategy != lsmstore.MutableBitmap && on.fsyncs >= off.fsyncs {
				t.Fatalf("batched run paid %d WAL fsyncs, one-at-a-time run %d: no commits were coalesced",
					on.fsyncs, off.fsyncs)
			}
			if on.live != off.live {
				t.Fatalf("live images diverge:\n on  %s\n off %s", on.live, off.live)
			}
			if on.reopened != off.reopened {
				t.Fatalf("reopened images diverge:\n on  %s\n off %s", on.reopened, off.reopened)
			}
		})
	}
}

// TestGroupCommitKillMidGroupCommit is the acceptance crash test:
// concurrent writers commit through shared group fsyncs while a crash
// image of the directory is captured mid-flight. Every write acknowledged
// BEFORE the snapshot began must be served — with its exact value — by a
// reopen of that image; writes in flight during the snapshot may land or
// not, but must never corrupt the store.
func TestGroupCommitKillMidGroupCommit(t *testing.T) {
	dir := t.TempDir()
	opts := diskOptions(lsmstore.Validation, dir)
	opts.MaintenanceWorkers = 2
	opts.MemoryBudget = 32 << 10 // flushes and WAL compaction race the writers
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 8
	ledger := storetest.NewLedger()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := uint64(0); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				id := uint64(w)<<32 | seq // unique per write: Get checks the exact value
				rec := tweetRec(id, uint32(w%40), int64(seq%1000))
				if err := db.Upsert(tweetPK(id), rec); err != nil {
					t.Error(err)
					return
				}
				ledger.Ack(id, rec)
			}
		}(w)
	}

	// Let commit groups form, then freeze the acknowledged set and copy
	// the directory while writers keep committing — the image catches
	// groups mid-fsync, exactly what a kill leaves.
	time.Sleep(300 * time.Millisecond)
	survivors := ledger.Snapshot()
	re, _ := storetest.KillAndReopen(t, dir, diskOptions(lsmstore.Validation, ""))
	defer re.Close()
	close(stop)
	wg.Wait()

	st := db.Stats()
	if st.Counters.GroupCommitBatches == 0 {
		t.Fatal("group commit never engaged — the test exercised nothing")
	}
	if st.Counters.GroupCommitWaiters <= st.Counters.GroupCommitBatches {
		t.Logf("warning: mean group size %.2f — little concurrency reached the commit group",
			float64(st.Counters.GroupCommitWaiters)/float64(st.Counters.GroupCommitBatches))
	}
	// The original process "died" at the snapshot: no Close, no final
	// manifest. Every write acknowledged before it must be in the image.
	if len(survivors) == 0 {
		t.Fatal("no writes acknowledged before the snapshot — nothing proven")
	}
	storetest.VerifyAll(t, re, survivors)
}

// TestUpsertIsOneLogAppend: a write is one log record, so one Upsert hands
// the device exactly one WAL append and pays exactly one fsync — its commit
// group's covering SyncWAL, issued at once for a lone writer. Group commit
// is always on for a durable log; the subtest is named for that.
func TestUpsertIsOneLogAppend(t *testing.T) {
	t.Run("on", func(t *testing.T) {
		db, ops := countedStore(t, diskOptions(lsmstore.Validation, t.TempDir()))
		defer db.Close()
		before := db.Stats().Counters
		if err := db.Upsert(tweetPK(1), tweetRec(1, 1, 1)); err != nil {
			t.Fatal(err)
		}
		got, fsyncs := ops(), db.Stats().Counters.Sub(before).WALFsyncs
		if got[dst.OpAppendWAL] != 1 || got[dst.OpSyncWAL] != 1 || fsyncs != 1 {
			t.Fatalf("one upsert: %d WAL appends, %d SyncWAL calls, %d fsyncs; want 1, 1, 1",
				got[dst.OpAppendWAL], got[dst.OpSyncWAL], fsyncs)
		}
	})
}

// TestGroupCommitBatchOneFsync: an ApplyBatch on the file backend hands the
// device one WAL append per mutation and pays one covering WAL fsync for the
// whole batch, not one per mutation.
func TestGroupCommitBatchOneFsync(t *testing.T) {
	db, ops := countedStore(t, diskOptions(lsmstore.Validation, t.TempDir()))
	defer db.Close()

	const n = 64
	muts := make([]lsmstore.Mutation, n)
	for i := range muts {
		id := uint64(i)
		muts[i] = lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: tweetPK(id), Record: tweetRec(id, 1, 1)}
	}
	before := db.Stats().Counters
	if err := db.ApplyBatch(muts); err != nil {
		t.Fatal(err)
	}
	d := db.Stats().Counters.Sub(before)
	if d.WALFsyncs != 1 {
		t.Fatalf("batch of %d mutations cost %d WAL fsyncs, want exactly 1", n, d.WALFsyncs)
	}
	if got := ops(); got[dst.OpAppendWAL] != n || got[dst.OpSyncWAL] != 1 {
		t.Fatalf("batch of %d mutations made %d WAL appends and %d SyncWAL calls, want %d and 1",
			n, got[dst.OpAppendWAL], got[dst.OpSyncWAL], n)
	}
	if d.GroupCommitWaiters != n {
		t.Fatalf("group covered %d commits, want %d", d.GroupCommitWaiters, n)
	}
	for i := 0; i < n; i++ {
		if _, found, err := db.Get(tweetPK(uint64(i))); err != nil || !found {
			t.Fatalf("batched write %d missing after one-fsync commit (found=%v err=%v)", i, found, err)
		}
	}
}

// TestGroupCommitMutableBitmapBatchDoesNotDefer: the Mutable-bitmap
// strategy flips disk-component bitmaps around its WAL append, and the
// flip's undo/commit pair is only race-free under the writer's key lock —
// so its batches must NOT defer commit durability to a batch-end wait.
// Each mutation commits durably on its own (a sequential batch is a lone
// committer per write: one fsync each, never one for the whole batch).
func TestGroupCommitMutableBitmapBatchDoesNotDefer(t *testing.T) {
	db, err := lsmstore.Open(diskOptions(lsmstore.MutableBitmap, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 16
	muts := make([]lsmstore.Mutation, n)
	for i := range muts {
		id := uint64(i)
		muts[i] = lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: tweetPK(id), Record: tweetRec(id, 1, 1)}
	}
	before := db.Stats().Counters
	if err := db.ApplyBatch(muts); err != nil {
		t.Fatal(err)
	}
	d := db.Stats().Counters.Sub(before)
	if d.WALFsyncs < n {
		t.Fatalf("mutable-bitmap batch of %d mutations cost %d WAL fsyncs — commit durability was deferred past the key lock", n, d.WALFsyncs)
	}
	for i := 0; i < n; i++ {
		if _, found, err := db.Get(tweetPK(uint64(i))); err != nil || !found {
			t.Fatalf("batched write %d missing (found=%v err=%v)", i, found, err)
		}
	}
}
