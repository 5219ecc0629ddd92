package lsmstore

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/workload"
)

// mixedBatch is writer w's round-r batch of n key groups over keys of its
// own: inserts of new keys, upserts, deletes of missing keys, a duplicate
// insert of a key the batch just put and a delete of one it put, in a
// pattern that differs from writer to writer.
func mixedBatch(w, r, n int) []Mutation {
	var muts []Mutation
	for k := 0; k < n; k++ {
		id := uint64(w)<<32 | uint64(r)<<16 | uint64(k)
		rec := workload.Tweet{ID: id, UserID: uint32(id % 10), Creation: int64(r), Message: []byte("m")}.Encode()
		switch (k + w) % 5 {
		case 0:
			muts = append(muts, Mutation{Op: OpInsert, PK: pk(id), Record: rec})
		case 1:
			muts = append(muts, Mutation{Op: OpUpsert, PK: pk(id), Record: rec})
		case 2:
			muts = append(muts, Mutation{Op: OpDelete, PK: pk(id)})
		case 3:
			muts = append(muts, Mutation{Op: OpUpsert, PK: pk(id), Record: rec}, Mutation{Op: OpInsert, PK: pk(id), Record: rec})
		case 4:
			muts = append(muts, Mutation{Op: OpInsert, PK: pk(id), Record: rec}, Mutation{Op: OpDelete, PK: pk(id)})
		}
	}
	return muts
}

// TestApplyBatchWithMatchesResults: on one and two shards, under a blind
// and a reading strategy (an Eager delete of a missing key is ignored, a
// Validation one is not), ApplyBatchWith hands fn, once, the report
// ApplyBatchResults returns for the same batch on a twin store — an empty
// batch's included.
func TestApplyBatchWithMatchesResults(t *testing.T) {
	for _, strategy := range []Strategy{Validation, Eager} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/shards=%d", strategy, shards), func(t *testing.T) {
				opts := routedOptions(shards)
				opts.Strategy = strategy
				with, results := openRouted(t, opts), openRouted(t, opts)
				ignored := 0
				for r, n := range []int{0, 1, 7, 64, 300} {
					muts := mixedBatch(r, r, n)
					got, calls := []bool(nil), 0
					if err := with.ApplyBatchWith(muts, func(applied []bool) {
						got, calls = slices.Clone(applied), calls+1
					}); err != nil {
						t.Fatalf("batch of %d: %v", len(muts), err)
					}
					want, err := results.ApplyBatchResults(muts)
					if err != nil {
						t.Fatal(err)
					}
					if calls != 1 || len(got) != len(muts) || !slices.Equal(got, want) {
						t.Fatalf("batch of %d: fn ran %d times with %v; ApplyBatchResults %v", len(muts), calls, got, want)
					}
					for _, ok := range want {
						if !ok {
							ignored++
						}
					}
				}
				if ignored == 0 {
					t.Fatal("no mutation was ignored: the reports compared are all true")
				}
			})
		}
	}
}

// TestApplyBatchWithErrorSkipsFn: fn does not run when the batch fails —
// an unknown op on either path, or a closed store.
func TestApplyBatchWithErrorSkipsFn(t *testing.T) {
	for _, shards := range []int{1, 2} {
		db := newRoutedDB(t, shards)
		muts := mixedBatch(0, 0, 20)
		muts = append(muts, Mutation{Op: Op(99), PK: pk(1)})
		if err := db.ApplyBatchWith(muts, func([]bool) { t.Errorf("%d shards: fn ran for a failed batch", shards) }); err == nil {
			t.Fatalf("%d shards: a batch with an unknown op succeeded", shards)
		}
		db.Close()
		if err := db.ApplyBatchWith(muts[:1], func([]bool) { t.Error("fn ran on a closed store") }); !errors.Is(err, ErrClosed) {
			t.Fatalf("ApplyBatchWith after Close: %v", err)
		}
	}
}

// TestApplyBatchWithReportsNotShared runs batches from several goroutines
// at once on a two-shard store, so recycled reports pass between calls.
// While fn runs, no other call may hold the same report: each fn checks its
// report is the one its batch must get, that no running fn holds the same
// memory, and, after yielding, that nothing overwrote it; the report it
// must get is a one-shard store's for the same batch. Run it under -race.
func TestApplyBatchWithReportsNotShared(t *testing.T) {
	const writers, rounds = 4, 50
	db, ref := newRoutedDB(t, 2), newRoutedDB(t, 1)
	var (
		mu     sync.Mutex
		inUse  = map[*bool]bool{} // first element of each running fn's report
		shared int
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				muts := mixedBatch(w, r, 16+w*8)
				want, err := ref.ApplyBatchResults(muts)
				if err != nil {
					t.Errorf("writer %d round %d: one-shard store: %v", w, r, err)
					return
				}
				err = db.ApplyBatchWith(muts, func(applied []bool) {
					mu.Lock()
					if _, ok := inUse[&applied[0]]; ok {
						shared++
					}
					inUse[&applied[0]] = true
					mu.Unlock()
					if !slices.Equal(applied, want) {
						t.Errorf("writer %d round %d: report %v, want %v", w, r, applied, want)
					}
					runtime.Gosched()
					if !slices.Equal(applied, want) {
						t.Errorf("writer %d round %d: report changed under fn to %v", w, r, applied)
					}
					mu.Lock()
					delete(inUse, &applied[0])
					mu.Unlock()
				})
				if err != nil {
					t.Errorf("writer %d round %d: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if shared != 0 {
		t.Fatalf("%d reports were handed to one fn while another fn held them", shared)
	}
}
