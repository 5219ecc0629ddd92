package lsmstore_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/lsmstore"
)

// The Close lifecycle contract: Close is idempotent under concurrency
// (shutdown runs exactly once), and afterwards every public operation
// fails with ErrClosed instead of touching a torn-down store. The network
// server's shutdown path leans on exactly this.

func TestCloseConcurrent(t *testing.T) {
	opts := tinyOptions(lsmstore.Validation)
	opts.Shards = 2
	opts.MaintenanceWorkers = 2
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := mixedWorkload(t, db, 300, 11)

	const closers, writers = 4, 4
	var wg sync.WaitGroup
	for i := 0; i < closers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := db.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	// Operations racing the close must either succeed (they beat it) or
	// fail with ErrClosed — never panic, double-shutdown, or hit a closed
	// device.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pk := tweetPK(uint64(1_000_000 + w*100 + i))
				err := db.Upsert(pk, make([]byte, 20))
				if err != nil && !errors.Is(err, lsmstore.ErrClosed) {
					t.Errorf("racing upsert: %v", err)
					return
				}
				if _, _, err := db.Get(tweetPK(ids[i%len(ids)])); err != nil && !errors.Is(err, lsmstore.ErrClosed) {
					t.Errorf("racing get: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatalf("repeat Close: %v", err)
	}
}

func TestOperationsAfterCloseReturnErrClosed(t *testing.T) {
	db, err := lsmstore.Open(tinyOptions(lsmstore.Validation))
	if err != nil {
		t.Fatal(err)
	}
	mixedWorkload(t, db, 100, 7)
	wantStats := db.Stats()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	pk := tweetPK(1)
	if err := db.Upsert(pk, []byte("x")); !errors.Is(err, lsmstore.ErrClosed) {
		t.Fatalf("Upsert after Close: %v", err)
	}
	if _, err := db.Insert(pk, []byte("x")); !errors.Is(err, lsmstore.ErrClosed) {
		t.Fatalf("Insert after Close: %v", err)
	}
	if _, err := db.Delete(pk); !errors.Is(err, lsmstore.ErrClosed) {
		t.Fatalf("Delete after Close: %v", err)
	}
	if _, _, err := db.Get(pk); !errors.Is(err, lsmstore.ErrClosed) {
		t.Fatalf("Get after Close: %v", err)
	}
	if err := db.ApplyBatch([]lsmstore.Mutation{{Op: lsmstore.OpUpsert, PK: pk, Record: []byte("x")}}); !errors.Is(err, lsmstore.ErrClosed) {
		t.Fatalf("ApplyBatch after Close: %v", err)
	}
	if _, err := db.ApplyBatchResults([]lsmstore.Mutation{{Op: lsmstore.OpUpsert, PK: pk, Record: []byte("x")}}); !errors.Is(err, lsmstore.ErrClosed) {
		t.Fatalf("ApplyBatchResults after Close: %v", err)
	}
	if _, err := db.SecondaryQuery("user", nil, nil, lsmstore.QueryOptions{}); !errors.Is(err, lsmstore.ErrClosed) {
		t.Fatalf("SecondaryQuery after Close: %v", err)
	}
	if err := db.SecondaryQueryWith("user", nil, nil, lsmstore.QueryOptions{}, func(*lsmstore.QueryResult) {
		t.Error("SecondaryQueryWith ran its callback after Close")
	}); !errors.Is(err, lsmstore.ErrClosed) {
		t.Fatalf("SecondaryQueryWith after Close: %v", err)
	}
	if err := db.FilterScan(0, 1, func(pk, rec []byte) {}); !errors.Is(err, lsmstore.ErrClosed) {
		t.Fatalf("FilterScan after Close: %v", err)
	}
	if err := db.Flush(); !errors.Is(err, lsmstore.ErrClosed) {
		t.Fatalf("Flush after Close: %v", err)
	}
	if err := db.Recover(); !errors.Is(err, lsmstore.ErrClosed) {
		t.Fatalf("Recover after Close: %v", err)
	}
	if err := db.RepairSecondaryIndexes(); !errors.Is(err, lsmstore.ErrClosed) {
		t.Fatalf("RepairSecondaryIndexes after Close: %v", err)
	}
	db.Crash() // must be a no-op, not a panic

	// Stats still answers, serving the final pre-Close snapshot.
	got := db.Stats()
	if got.Ingested != wantStats.Ingested || got.Shards != wantStats.Shards {
		t.Fatalf("Stats after Close = %+v, want the final snapshot %+v", got, wantStats)
	}
}

// TestCloseStopsFanOutHelpers: the goroutines a multi-shard store runs its
// fan-out legs on outlive Crash and Recover, which fan out on them too, and
// Close stops every one: the process's goroutine count returns to what it
// was before Open, and a fan-out after Close fails with ErrClosed.
func TestCloseStopsFanOutHelpers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	opts := tinyOptions(lsmstore.Validation)
	opts.Shards = 4
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := mixedWorkload(t, db, 400, 3)
	lo, hi := workload.UserKey(0), workload.UserKey(1000)
	q := func() int {
		res, err := db.SecondaryQuery("user", lo, hi, lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation, IndexOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Keys)
	}
	want := q()
	if want == 0 {
		t.Fatal("the query answers nothing; the case measures nothing")
	}
	// Concurrent fan-outs each take helpers of their own.
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				res, err := db.SecondaryQuery("user", lo, hi, lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation, IndexOnly: true})
				if err != nil || len(res.Keys) != want {
					t.Errorf("concurrent query: %d keys, %v; want %d", len(res.Keys), err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := runtime.NumGoroutine(); n <= baseline {
		t.Fatalf("%d goroutines after concurrent fan-outs, %d before Open: no helper is parked", n, baseline)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := q(); got != want {
		t.Fatalf("after Crash and Recover the query returns %d keys, want %d", got, want)
	}
	if err := db.ApplyBatch(batchOf(ids)); err != nil {
		t.Fatalf("a batch fanned out after Recover: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines after Close, %d before Open:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
	if _, err := db.SecondaryQuery("user", lo, hi, lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation}); !errors.Is(err, lsmstore.ErrClosed) {
		t.Fatalf("SecondaryQuery after Close: %v", err)
	}
	if err := db.ApplyBatch(batchOf(ids)); !errors.Is(err, lsmstore.ErrClosed) {
		t.Fatalf("ApplyBatch after Close: %v", err)
	}
}

// batchOf upserts every id, so the batch spans the store's shards.
func batchOf(ids []uint64) []lsmstore.Mutation {
	muts := make([]lsmstore.Mutation, len(ids))
	for i, id := range ids {
		muts[i] = lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: tweetPK(id), Record: tweetRec(id, uint32(id%40), int64(i))}
	}
	return muts
}
