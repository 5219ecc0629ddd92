package lsmstore_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storetest"
	"repro/internal/workload"
	"repro/lsmstore"
)

// The buffer cache recycles frames: a miss reads into the buffer of a page
// that was evicted and unpinned. These tests hold the engine to the pin
// discipline that makes that safe — a reader never sees bytes of a frame
// that was recycled under it, and every read path unpins what it pinned.

// frameRecord is id's record at version v: its creation time encodes
// (v, id), so any record read back names the exact bytes it must equal, and
// its message repeats both so a page overwritten with another page's bytes
// (or the poison pattern) cannot pass for it.
func frameRecord(id uint64, v int64, keys int) []byte {
	creation := v*int64(keys) + int64(id)
	msg := make([]byte, 0, 192)
	for len(msg) < cap(msg) {
		msg = binary.BigEndian.AppendUint64(msg, id)
		msg = binary.BigEndian.AppendUint64(msg, uint64(creation))
	}
	return workload.Tweet{ID: id, UserID: uint32((id + uint64(v)) % 40), Creation: creation, Message: msg}.Encode()
}

// checkFrameRecord reports whether rec is exactly a version of pk's record
// and returns that version.
func checkFrameRecord(pk, rec []byte, keys int) (int64, error) {
	if len(pk) != 8 {
		return 0, fmt.Errorf("primary key %x", pk)
	}
	id := binary.BigEndian.Uint64(pk)
	creation, ok := workload.CreationOf(rec)
	if !ok || creation < int64(id) || (creation-int64(id))%int64(keys) != 0 {
		return 0, fmt.Errorf("key %d: record %x is no version of it", id, rec)
	}
	v := (creation - int64(id)) / int64(keys)
	if !bytes.Equal(rec, frameRecord(id, v, keys)) {
		return 0, fmt.Errorf("key %d version %d: record %x differs from the one written", id, v, rec)
	}
	return v, nil
}

// frameOptions is a disk store whose one shard's buffer cache has eight
// frames, with poisoning on, under background flushes and merges.
func frameOptions(t *testing.T, strategy lsmstore.Strategy) lsmstore.Options {
	opts := storetest.DiskOptions(strategy, t.TempDir())
	opts.CacheBytes = 8 * int64(opts.PageSize)
	opts.MemoryBudget = 24 << 10
	opts.MaintenanceWorkers = 2
	return opts
}

func openFrameStore(t *testing.T, opts lsmstore.Options) *lsmstore.DB {
	t.Helper()
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < db.NumShards(); i++ {
		db.Shard(i).Config().Store.Cache().SetPoison(true)
	}
	return db
}

// pinnedFrames sums the shards' pinned buffer-cache frames.
func pinnedFrames(db *lsmstore.DB) int {
	n := 0
	for i := 0; i < db.NumShards(); i++ {
		n += db.Shard(i).Config().Store.Cache().Pinned()
	}
	return n
}

// TestRecycledFramesNeverServeStaleBytes races GETs, secondary queries and
// filter scans against writers, flushes and merges on an eight-frame cache
// whose freed frames are poisoned; the merges stream their inputs through
// frames they never cache, recycled alongside the readers' own. Every record any read returns must be
// byte for byte a version of its key that was written, and a GET must
// return a version no older than the last acknowledged write before it and
// no newer than the last one started after it. Run it under -race: a reader
// still using a recycled frame also races with the read that refills it.
func TestRecycledFramesNeverServeStaleBytes(t *testing.T) {
	const keys, writers, rounds = 240, 2, 12
	db := openFrameStore(t, frameOptions(t, lsmstore.Validation))
	defer db.Close()

	var started, acked [keys]atomic.Int64
	write := func(ids []uint64, v int64) {
		muts := make([]lsmstore.Mutation, len(ids))
		for i, id := range ids {
			started[id].Store(v)
			muts[i] = lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: storetest.TweetPK(id), Record: frameRecord(id, v, keys)}
		}
		if err := db.ApplyBatch(muts); err != nil {
			t.Error(err)
		}
		for _, id := range ids {
			acked[id].Store(v)
		}
	}
	all := make([]uint64, keys)
	for i := range all {
		all[i] = uint64(i)
	}
	write(all, 0)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		failures atomic.Int64
	)
	mergesBefore := db.Stats().Maintenance.Merges
	fail := func(format string, args ...any) {
		if failures.Add(1) <= 5 {
			t.Errorf(format, args...)
		}
	}
	reader := func(op func(round int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; !stop.Load(); round++ {
				op(round)
			}
		}()
	}

	reader(func(round int) {
		id := uint64(round*7) % keys
		lo := acked[id].Load()
		rec, found, err := db.Get(storetest.TweetPK(id))
		hi := started[id].Load()
		if err != nil || !found {
			fail("Get(%d): found=%v err=%v", id, found, err)
			return
		}
		if v, err := checkFrameRecord(storetest.TweetPK(id), rec, keys); err != nil {
			fail("Get: %v", err)
		} else if v < lo || v > hi {
			fail("Get(%d) = version %d, want %d..%d", id, v, lo, hi)
		}
	})
	reader(func(round int) {
		u := uint32(round % 36)
		res, err := db.SecondaryQuery("user", workload.UserKey(u), workload.UserKey(u+4),
			lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation})
		if err != nil {
			fail("SecondaryQuery: %v", err)
			return
		}
		for _, r := range res.Records {
			if _, err := checkFrameRecord(r.PK, r.Value, keys); err != nil {
				fail("SecondaryQuery: %v", err)
			}
		}
	})
	reader(func(round int) {
		if err := db.FilterScan(0, 1<<62, func(pk, rec []byte) {
			if _, err := checkFrameRecord(pk, rec, keys); err != nil {
				fail("FilterScan: %v", err)
			}
		}); err != nil {
			fail("FilterScan: %v", err)
		}
	})

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			var mine []uint64
			for id := uint64(w); id < keys; id += writers {
				mine = append(mine, id)
			}
			for v := int64(1); v <= rounds; v++ {
				for i := 0; i < len(mine); i += 16 {
					write(mine[i:min(i+16, len(mine))], v)
				}
			}
		}(w)
	}
	writersWG.Add(1)
	go func() { // explicit flushes between the budget-driven ones
		defer writersWG.Done()
		for i := 0; i < rounds/2; i++ {
			if err := db.Flush(); err != nil {
				t.Error(err)
			}
		}
	}()
	writersWG.Wait()
	mergesDuringReads := db.Stats().Maintenance.Merges - mergesBefore
	stop.Store(true)
	wg.Wait()
	if mergesDuringReads == 0 {
		t.Fatal("no merge ran while the readers did: the test exercised no streamed merge")
	}

	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < keys; id++ {
		rec, found, err := db.Get(storetest.TweetPK(id))
		if err != nil || !found || !bytes.Equal(rec, frameRecord(id, rounds, keys)) {
			t.Fatalf("after the run, key %d = %x (found=%v err=%v), want version %d", id, rec, found, err, rounds)
		}
	}
	if n := pinnedFrames(db); n != 0 {
		t.Fatalf("%d buffer-cache frames still pinned after every reader finished", n)
	}
	if s := db.Stats(); s.Counters.FrameReuses == 0 {
		t.Fatal("no miss reused a frame: the test exercised nothing")
	}
}

// TestNoLeakedPins runs every operation class against every strategy and
// requires the pinned-frame count back at zero after each: point reads by
// every path, writes (whose strategy reads pin pages), secondary queries
// under each validation, filter scans, flushes with merges, merges streaming
// while GETs and secondary queries read, and standalone repair.
func TestNoLeakedPins(t *testing.T) {
	for _, strategy := range []lsmstore.Strategy{lsmstore.Eager, lsmstore.Validation, lsmstore.MutableBitmap, lsmstore.DeletedKey} {
		t.Run(fmt.Sprint(strategy), func(t *testing.T) {
			const keys = 300
			opts := frameOptions(t, strategy)
			opts.MaintenanceWorkers = 0
			db := openFrameStore(t, opts)
			defer db.Close()
			check := func(class string, op func() error) {
				t.Helper()
				if err := op(); err != nil {
					t.Fatalf("%s: %v", class, err)
				}
				if n := pinnedFrames(db); n != 0 {
					t.Fatalf("%s left %d frames pinned", class, n)
				}
			}
			for v := int64(0); v < 3; v++ {
				check("upsert", func() error {
					for id := uint64(0); id < keys; id++ {
						if err := db.Upsert(storetest.TweetPK(id), frameRecord(id, v, keys)); err != nil {
							return err
						}
					}
					return nil
				})
				check("flush and merge", db.Flush)
			}
			check("insert and delete", func() error {
				if _, err := db.Insert(storetest.TweetPK(1), frameRecord(1, 9, keys)); err != nil {
					return err
				}
				_, err := db.Delete(storetest.TweetPK(2))
				return err
			})
			check("get", func() error {
				for id := uint64(0); id < keys; id += 3 {
					if _, _, err := db.Get(storetest.TweetPK(id)); err != nil {
						return err
					}
					if _, _, err := db.GetRef(storetest.TweetPK(id + 1)); err != nil {
						return err
					}
					if _, err := db.GetWith(storetest.TweetPK(id+2), func([]byte) {}); err != nil {
						return err
					}
				}
				return nil
			})
			for _, qo := range []lsmstore.QueryOptions{
				{Validation: storetest.ValidationFor(strategy)},
				{Validation: lsmstore.DirectValidation},
				{Validation: storetest.ValidationFor(strategy), IndexOnly: storetest.ValidationFor(strategy) != lsmstore.DirectValidation},
			} {
				check(fmt.Sprintf("secondary query %+v", qo), func() error {
					_, err := db.SecondaryQuery("user", workload.UserKey(0), workload.UserKey(20), qo)
					return err
				})
			}
			check("merge under reads", func() error {
				return mergeUnderReads(db, keys, storetest.ValidationFor(strategy))
			})
			check("filter scan", func() error { return db.FilterScan(0, 1<<62, func(_, _ []byte) {}) })
			check("bounded filter scan", func() error { return db.FilterScan(keys, 2*keys, func(_, _ []byte) {}) })
			if strategy == lsmstore.Validation {
				check("repair", db.RepairSecondaryIndexes)
			}
			check("flush and merge", db.Flush)
		})
	}
}

// mergeUnderReads overwrites every key and flushes, again until a flush
// merged, while a reader GETs keys and runs secondary queries throughout.
func mergeUnderReads(db *lsmstore.DB, keys int, validation lsmstore.ValidationMethod) error {
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		readErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := uint64(0); !stop.Load() && readErr == nil; round++ {
			if _, _, err := db.Get(storetest.TweetPK(round % uint64(keys))); err != nil {
				readErr = err
			} else if _, err := db.SecondaryQuery("user", workload.UserKey(uint32(round%30)), workload.UserKey(uint32(round%30)+8),
				lsmstore.QueryOptions{Validation: validation}); err != nil {
				readErr = err
			}
		}
	}()
	err := func() error {
		before := db.Stats().Maintenance.Merges
		for v := int64(10); v < 20; v++ {
			for id := uint64(0); id < uint64(keys); id++ {
				if err := db.Upsert(storetest.TweetPK(id), frameRecord(id, v, keys)); err != nil {
					return err
				}
			}
			if err := db.Flush(); err != nil {
				return err
			}
			if db.Stats().Maintenance.Merges > before {
				return nil
			}
		}
		return fmt.Errorf("no merge in 10 flushes")
	}()
	stop.Store(true)
	wg.Wait()
	return errors.Join(err, readErr)
}
