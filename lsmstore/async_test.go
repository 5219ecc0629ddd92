package lsmstore_test

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/workload"
	"repro/lsmstore"
)

// asyncOptions returns a store configuration with background maintenance:
// a small memory budget keeps flush batches flowing through the pool.
func asyncOptions(strategy lsmstore.Strategy, shards, workers int) lsmstore.Options {
	opts := shardedOptions(strategy, shards)
	opts.MaintenanceWorkers = workers
	return opts
}

// applyWorkload drives a deterministic mixed stream from the seeded
// generator into db and returns the live model (id -> record).
func applyWorkload(t *testing.T, db *lsmstore.DB, n int) map[uint64][]byte {
	t.Helper()
	cfg := workload.DefaultConfig(17)
	cfg.UserIDRange = 40
	cfg.UpdateRatio = 0.4
	cfg.ZipfUpdates = true
	gen := workload.NewGenerator(cfg)
	model := make(map[uint64][]byte)
	for i := 0; i < n; i++ {
		op := gen.Next()
		rec := op.Tweet.Encode()
		if i%11 == 10 {
			if _, err := db.Delete(op.Tweet.PK()); err != nil {
				t.Fatal(err)
			}
			delete(model, op.Tweet.ID)
			continue
		}
		if err := db.Upsert(op.Tweet.PK(), rec); err != nil {
			t.Fatal(err)
		}
		model[op.Tweet.ID] = rec
	}
	return model
}

// storeFingerprint summarizes everything a client can observe: every live
// record via Get, the full secondary answer, and the filter-scan rows.
// The validation method must match the strategy (NoValidation for Eager:
// its unchanged-key upsert optimization keeps old entry timestamps, so
// Timestamp validation's repairedTS pruning — a function of merge grouping
// — would make the answer structure-dependent).
func storeFingerprint(t *testing.T, db *lsmstore.DB, validation lsmstore.ValidationMethod, model map[uint64][]byte) string {
	t.Helper()
	var sb []string
	ids := make([]uint64, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rec, found, err := db.Get(tweetPK(id))
		if err != nil {
			t.Fatal(err)
		}
		sb = append(sb, fmt.Sprintf("get:%d:%v:%x", id, found, rec))
	}
	q, err := db.SecondaryQuery("user", workload.UserKey(0), workload.UserKey(39),
		lsmstore.QueryOptions{Validation: validation})
	if err != nil {
		t.Fatal(err)
	}
	sb = append(sb, "secondary:"+recordSet(q.Records))
	var scans []string
	if err := db.FilterScan(0, 1<<62, func(pk, rec []byte) {
		scans = append(scans, fmt.Sprintf("%x=%x", pk, rec))
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(scans)
	sb = append(sb, "scan:"+fmt.Sprint(scans))
	return fmt.Sprint(sb)
}

// TestAsyncEquivalence applies the identical seeded workload with
// MaintenanceWorkers 0 (today's synchronous path) and 4 (the background
// scheduler) and demands identical query results and ingestion counts from
// every read path once both stores are drained. No wall-clock or
// scheduling-dependent quantity is asserted.
func TestAsyncEquivalence(t *testing.T) {
	for _, strategy := range []lsmstore.Strategy{lsmstore.Eager, lsmstore.Validation, lsmstore.MutableBitmap} {
		strategy := strategy
		for _, shards := range []int{1, 4} {
			shards := shards
			t.Run(fmt.Sprintf("%v/shards=%d", strategy, shards), func(t *testing.T) {
				validation := lsmstore.TimestampValidation
				if strategy == lsmstore.Eager {
					validation = lsmstore.NoValidation
				}
				syncDB, err := lsmstore.Open(asyncOptions(strategy, shards, 0))
				if err != nil {
					t.Fatal(err)
				}
				defer syncDB.Close()
				asyncDB, err := lsmstore.Open(asyncOptions(strategy, shards, 4))
				if err != nil {
					t.Fatal(err)
				}
				defer asyncDB.Close()

				model := applyWorkload(t, syncDB, 2500)
				model2 := applyWorkload(t, asyncDB, 2500)
				if len(model) != len(model2) {
					t.Fatalf("models diverge: %d vs %d live rows", len(model), len(model2))
				}
				if err := syncDB.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := asyncDB.Flush(); err != nil {
					t.Fatal(err)
				}

				sa, sb := syncDB.Stats(), asyncDB.Stats()
				if sa.Ingested != sb.Ingested || sa.Ignored != sb.Ignored {
					t.Fatalf("counts diverge: sync %d/%d async %d/%d",
						sa.Ingested, sa.Ignored, sb.Ingested, sb.Ignored)
				}
				fa := storeFingerprint(t, syncDB, validation, model)
				fb := storeFingerprint(t, asyncDB, validation, model)
				if fa != fb {
					t.Fatalf("stores diverge under identical workloads:\nsync:  %.400s\nasync: %.400s", fa, fb)
				}
			})
		}
	}
}

// TestAsyncShardedConcurrentBattery races batch writers against
// SecondaryQuery, FilterScan, Get and Stats readers on a 4-shard store with
// background maintenance — flush builds and merges run on the shared pool
// while every read path executes. Its real assertions run under -race.
func TestAsyncShardedConcurrentBattery(t *testing.T) {
	for _, strategy := range []lsmstore.Strategy{lsmstore.Validation, lsmstore.Eager, lsmstore.MutableBitmap} {
		strategy := strategy
		t.Run(fmt.Sprint(strategy), func(t *testing.T) {
			validation := lsmstore.TimestampValidation
			if strategy == lsmstore.Eager {
				validation = lsmstore.NoValidation
			}
			db, err := lsmstore.Open(asyncOptions(strategy, 4, 3))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			const (
				writers = 3
				batches = 5
				perB    = 150
			)
			var wg sync.WaitGroup
			errc := make(chan error, writers+2)
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for bnum := 0; bnum < batches; bnum++ {
						var muts []lsmstore.Mutation
						for i := 0; i < perB; i++ {
							id := uint64(w*1_000_000 + bnum*perB + i + 1)
							muts = append(muts, lsmstore.Mutation{
								Op: lsmstore.OpInsert, PK: tweetPK(id),
								Record: tweetRec(id, uint32(id%50), int64(id)),
							})
						}
						// Delete a few of the batch's own keys afterwards.
						for i := 0; i < perB; i += 40 {
							id := uint64(w*1_000_000 + bnum*perB + i + 1)
							muts = append(muts, lsmstore.Mutation{Op: lsmstore.OpDelete, PK: tweetPK(id)})
						}
						if err := db.ApplyBatch(muts); err != nil {
							errc <- err
							return
						}
					}
				}()
			}
			stop := make(chan struct{})
			var rwg sync.WaitGroup
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					_ = db.Stats()
					if _, _, err := db.Get(tweetPK(uint64(i%500 + 1))); err != nil {
						errc <- err
						return
					}
					if _, err := db.SecondaryQuery("user", workload.UserKey(0), workload.UserKey(9),
						lsmstore.QueryOptions{Validation: validation}); err != nil {
						errc <- err
						return
					}
					if err := db.FilterScan(0, 1<<62, func(pk, rec []byte) {}); err != nil {
						errc <- err
						return
					}
				}
			}()
			wg.Wait()
			close(stop)
			rwg.Wait()
			select {
			case err := <-errc:
				t.Fatal(err)
			default:
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			// Every surviving insert is visible; every deleted key is gone.
			for w := 0; w < writers; w++ {
				for bnum := 0; bnum < batches; bnum++ {
					for i := 0; i < perB; i += 7 {
						id := uint64(w*1_000_000 + bnum*perB + i + 1)
						rec, found, err := db.Get(tweetPK(id))
						if err != nil {
							t.Fatal(err)
						}
						wantGone := i%40 == 0
						if found == wantGone {
							t.Fatalf("writer %d key %d: found=%v wantGone=%v", w, id, found, wantGone)
						}
						if found && !bytes.Equal(rec, tweetRec(id, uint32(id%50), int64(id))) {
							t.Fatalf("key %d corrupted", id)
						}
					}
				}
			}
			// Per batch: perB inserts plus 4 deletes of existing keys
			// (i = 0, 40, 80, 120), all of which count as ingested.
			if got, want := db.Stats().Ingested, int64(writers*batches*(perB+4)); got != want {
				t.Fatalf("ingested %d want %d", got, want)
			}
		})
	}
}
