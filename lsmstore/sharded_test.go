package lsmstore_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/workload"
	"repro/lsmstore"
)

func shardedOptions(strategy lsmstore.Strategy, shards int) lsmstore.Options {
	opts := tinyOptions(strategy)
	opts.Shards = shards
	return opts
}

// TestShardedEquivalence drives identical workloads into a one-shard store
// and a store opened with Shards 0 (which means one) or 4 and demands the
// same visible contents from every read path: point reads, secondary
// queries, and filter scans.
func TestShardedEquivalence(t *testing.T) {
	for _, strategy := range []lsmstore.Strategy{lsmstore.Eager, lsmstore.Validation} {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", strategy, shards), func(t *testing.T) {
				validation := lsmstore.NoValidation
				if strategy == lsmstore.Validation {
					validation = lsmstore.TimestampValidation
				}
				single, err := lsmstore.Open(shardedOptions(strategy, 1))
				if err != nil {
					t.Fatal(err)
				}
				defer single.Close()
				sharded, err := lsmstore.Open(shardedOptions(strategy, shards))
				if err != nil {
					t.Fatal(err)
				}
				defer sharded.Close()
				wantShards := max(shards, 1)
				if single.NumShards() != 1 || sharded.NumShards() != wantShards {
					t.Fatalf("shard counts: %d, %d", single.NumShards(), sharded.NumShards())
				}

				rng := rand.New(rand.NewSource(11))
				live := map[uint64]bool{}
				for i := 0; i < 3000; i++ {
					id := uint64(rng.Intn(400) + 1)
					pk := tweetPK(id)
					if rng.Intn(8) == 0 {
						single.Delete(pk)
						sharded.Delete(pk)
						live[id] = false
						continue
					}
					rec := tweetRec(id, uint32(rng.Intn(30)), int64(i+1))
					if err := single.Upsert(pk, rec); err != nil {
						t.Fatal(err)
					}
					if err := sharded.Upsert(pk, rec); err != nil {
						t.Fatal(err)
					}
					live[id] = true
				}

				for id, alive := range live {
					a, foundA, errA := single.Get(tweetPK(id))
					b, foundB, errB := sharded.Get(tweetPK(id))
					if errA != nil || errB != nil {
						t.Fatal(errA, errB)
					}
					if foundA != alive || foundB != alive {
						t.Fatalf("key %d: single found=%v sharded found=%v want %v", id, foundA, foundB, alive)
					}
					if !bytes.Equal(a, b) {
						t.Fatalf("key %d: records differ", id)
					}
				}

				qa, err := single.SecondaryQuery("user", workload.UserKey(0), workload.UserKey(29),
					lsmstore.QueryOptions{Validation: validation})
				if err != nil {
					t.Fatal(err)
				}
				qb, err := sharded.SecondaryQuery("user", workload.UserKey(0), workload.UserKey(29),
					lsmstore.QueryOptions{Validation: validation})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := recordSet(qb.Records), recordSet(qa.Records); got != want {
					t.Fatalf("secondary answers differ:\nsharded: %s\nsingle:  %s", got, want)
				}

				var sa, sb []string
				single.FilterScan(0, 1<<62, func(pk, rec []byte) { sa = append(sa, fmt.Sprintf("%x=%x", pk, rec)) })
				sharded.FilterScan(0, 1<<62, func(pk, rec []byte) { sb = append(sb, fmt.Sprintf("%x=%x", pk, rec)) })
				sort.Strings(sa)
				sort.Strings(sb)
				if fmt.Sprint(sa) != fmt.Sprint(sb) {
					t.Fatalf("filter scans differ: %d vs %d rows", len(sa), len(sb))
				}

				st := sharded.Stats()
				wantPer := wantShards
				if wantShards == 1 {
					wantPer = 0 // one shard's snapshot is the top level itself
				}
				if st.Shards != wantShards || len(st.PerShard) != wantPer {
					t.Fatalf("stats shape: shards=%d per=%d", st.Shards, len(st.PerShard))
				}
				var ingested int64
				for _, s := range st.PerShard {
					ingested += s.Ingested
				}
				if wantPer > 0 && ingested != st.Ingested {
					t.Fatalf("aggregate ingested %d != per-shard sum %d", st.Ingested, ingested)
				}
				if st.Ingested != single.Stats().Ingested {
					t.Fatalf("ingested: sharded %d vs single %d", st.Ingested, single.Stats().Ingested)
				}
			})
		}
	}
}

func recordSet(recs []lsmstore.Record) string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%x=%x", r.PK, r.Value)
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// TestShardedRoutingDeterministicAcrossReopen checks that the same PK lands
// on the same shard in two independently opened stores (placement is a pure
// function of key bytes and shard count).
func TestShardedRoutingDeterministicAcrossReopen(t *testing.T) {
	const shards = 4
	placements := func(db *lsmstore.DB) map[uint64]int {
		out := map[uint64]int{}
		for id := uint64(1); id <= 200; id++ {
			if err := db.Upsert(tweetPK(id), tweetRec(id, 1, int64(id))); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < shards; s++ {
				if found, _ := db.Shard(s).Primary().Get(tweetPK(id), nil); found {
					out[id] = s
				}
			}
		}
		return out
	}
	a, err := lsmstore.Open(shardedOptions(lsmstore.Eager, shards))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := lsmstore.Open(shardedOptions(lsmstore.Eager, shards))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	pa, pb := placements(a), placements(b)
	for id, s := range pa {
		if pb[id] != s {
			t.Fatalf("key %d moved: shard %d vs %d across reopen", id, s, pb[id])
		}
	}
}

// TestShardedSecondaryQueryLimit checks the cross-shard merge: results come
// back in primary-key order and Limit returns exactly the first K of the
// full merged answer.
func TestShardedSecondaryQueryLimit(t *testing.T) {
	db, err := lsmstore.Open(shardedOptions(lsmstore.Validation, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 400
	var muts []lsmstore.Mutation
	for id := uint64(1); id <= n; id++ {
		muts = append(muts, lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: tweetPK(id), Record: tweetRec(id, 7, int64(id))})
	}
	if err := db.ApplyBatch(muts); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	full, err := db.SecondaryQuery("user", workload.UserKey(7), workload.UserKey(7),
		lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Records) != n {
		t.Fatalf("full query returned %d of %d", len(full.Records), n)
	}
	for i := 1; i < len(full.Records); i++ {
		if bytes.Compare(full.Records[i-1].PK, full.Records[i].PK) >= 0 {
			t.Fatal("merged records not in primary-key order")
		}
	}

	const limit = 25
	capped, err := db.SecondaryQuery("user", workload.UserKey(7), workload.UserKey(7),
		lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation, Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Records) != limit {
		t.Fatalf("limit %d returned %d records", limit, len(capped.Records))
	}
	for i := range capped.Records {
		if !bytes.Equal(capped.Records[i].PK, full.Records[i].PK) {
			t.Fatalf("limited answer is not a prefix of the full answer at %d", i)
		}
	}

	// Index-only limit too.
	keys, err := db.SecondaryQuery("user", workload.UserKey(7), workload.UserKey(7),
		lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation, IndexOnly: true, Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys.Keys) != limit {
		t.Fatalf("index-only limit %d returned %d keys", limit, len(keys.Keys))
	}

	// Unknown index surfaces the sentinel through the sharded path too.
	if _, err := db.SecondaryQuery("nope", nil, nil, lsmstore.QueryOptions{}); err == nil {
		t.Fatal("unknown index accepted on sharded store")
	}
}

// TestLimitConsistentAcrossShardCounts checks that a capped query selects
// the same subset (the lowest primary keys) on every shard count.
func TestLimitConsistentAcrossShardCounts(t *testing.T) {
	answers := make([]string, 0, 3)
	for _, shards := range []int{1, 2, 4} {
		db, err := lsmstore.Open(shardedOptions(lsmstore.Eager, shards))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for id := uint64(1); id <= 120; id++ {
			if err := db.Upsert(tweetPK(id), tweetRec(id, 5, int64(id))); err != nil {
				t.Fatal(err)
			}
		}
		res, err := db.SecondaryQuery("user", workload.UserKey(5), workload.UserKey(5),
			lsmstore.QueryOptions{IndexOnly: true, Limit: 7})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Keys) != 7 {
			t.Fatalf("shards=%d: got %d keys, want 7", shards, len(res.Keys))
		}
		answers = append(answers, fmt.Sprintf("%x", res.Keys))
	}
	for i := 1; i < len(answers); i++ {
		if answers[i] != answers[0] {
			t.Fatalf("limited answer differs across shard counts:\n%s\nvs\n%s", answers[0], answers[i])
		}
	}
}

// TestShardedCrashRecover crashes all shards and checks recovery restores
// every committed record on every shard.
func TestShardedCrashRecover(t *testing.T) {
	db, err := lsmstore.Open(shardedOptions(lsmstore.Validation, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 300
	for id := uint64(1); id <= n; id++ {
		if err := db.Upsert(tweetPK(id), tweetRec(id, uint32(id%5), int64(id))); err != nil {
			t.Fatal(err)
		}
	}
	db.Crash()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= n; id++ {
		rec, found, err := db.Get(tweetPK(id))
		if err != nil || !found {
			t.Fatalf("key %d lost after crash+recover (err=%v)", id, err)
		}
		if !bytes.Equal(rec, tweetRec(id, uint32(id%5), int64(id))) {
			t.Fatalf("key %d corrupted after recovery", id)
		}
	}
	if got := db.Stats().Ingested; got != n {
		t.Fatalf("ingested after recovery: %d want %d", got, n)
	}
}

// TestShardedConcurrentApplyBatch exercises concurrent batch writers with
// concurrent readers (Stats, Get, SecondaryQuery, Flush) across shards; its
// real assertions run under -race in CI.
func TestShardedConcurrentApplyBatch(t *testing.T) {
	db, err := lsmstore.Open(shardedOptions(lsmstore.Validation, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const (
		writers = 4
		batches = 6
		perB    = 200
	)
	var wg sync.WaitGroup
	errc := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				var muts []lsmstore.Mutation
				for i := 0; i < perB; i++ {
					id := uint64(w*1_000_000 + b*perB + i + 1)
					muts = append(muts, lsmstore.Mutation{
						Op: lsmstore.OpInsert, PK: tweetPK(id), Record: tweetRec(id, uint32(id%50), int64(id)),
					})
				}
				if err := db.ApplyBatch(muts); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = db.Stats()
			if _, _, err := db.Get(tweetPK(uint64(i + 1))); err != nil {
				errc <- err
				return
			}
			if _, err := db.SecondaryQuery("user", workload.UserKey(0), workload.UserKey(9),
				lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation}); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := db.Flush(); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got, want := db.Stats().Ingested, int64(writers*batches*perB); got != want {
		t.Fatalf("ingested %d want %d", got, want)
	}
}

// TestApplyBatchUnsharded checks the sequential single-partition path.
func TestApplyBatchUnsharded(t *testing.T) {
	db, err := lsmstore.Open(tinyOptions(lsmstore.Eager))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	muts := []lsmstore.Mutation{
		{Op: lsmstore.OpInsert, PK: tweetPK(1), Record: tweetRec(1, 1, 1)},
		{Op: lsmstore.OpUpsert, PK: tweetPK(1), Record: tweetRec(1, 2, 2)},
		{Op: lsmstore.OpInsert, PK: tweetPK(2), Record: tweetRec(2, 1, 3)},
		{Op: lsmstore.OpDelete, PK: tweetPK(2)},
	}
	if err := db.ApplyBatch(muts); err != nil {
		t.Fatal(err)
	}
	rec, found, _ := db.Get(tweetPK(1))
	if !found || !bytes.Equal(rec, tweetRec(1, 2, 2)) {
		t.Fatal("batch upsert not applied in order")
	}
	if _, found, _ := db.Get(tweetPK(2)); found {
		t.Fatal("batch delete not applied")
	}
}
