package lsmstore

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/workload"
)

// newRoutedDB opens a small simulated store over n partitions. (The
// storetest fixtures import lsmstore, so an in-package test cannot.)
func newRoutedDB(t *testing.T, n int) *DB {
	return openRouted(t, routedOptions(n))
}

func routedOptions(n int) Options {
	return Options{
		Strategy:     Validation,
		Secondaries:  []SecondaryIndex{{Name: "user", Extract: workload.UserIDOf}},
		PageSize:     4 << 10,
		CacheBytes:   int64(n) * 2 << 20,
		MemoryBudget: 32 << 10,
		Seed:         5,
		Shards:       n,
	}
}

func openRouted(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func pk(id uint64) []byte { return binary.BigEndian.AppendUint64(nil, id) }

func TestShardOfDeterministicAndSpread(t *testing.T) {
	const n = 8
	hits := make([]int, n)
	for id := uint64(0); id < 4096; id++ {
		s := shardOf(pk(id), n)
		if s < 0 || s >= n {
			t.Fatalf("shard %d out of range", s)
		}
		if again := shardOf(pk(id), n); again != s {
			t.Fatalf("shardOf not deterministic: %d vs %d", s, again)
		}
		hits[s]++
	}
	for s, h := range hits {
		// A uniform hash puts ~512 of 4096 keys on each of 8 shards; accept
		// a generous band to stay robust to the fixed hash function.
		if h < 256 || h > 1024 {
			t.Fatalf("shard %d got %d of 4096 keys; hash badly skewed", s, h)
		}
	}
	if shardOf(pk(99), 1) != 0 {
		t.Fatal("single shard must own everything")
	}
}

// insertBatch builds n inserts (ids 1..n, ten users) followed by an upsert
// of key 1 and a delete of key 2: same-key program order must hold even
// though the batch is regrouped per shard.
func insertBatch(n uint64) []Mutation {
	var muts []Mutation
	for id := uint64(1); id <= n; id++ {
		rec := workload.Tweet{ID: id, UserID: uint32(id % 10), Creation: int64(id), Message: []byte("v1")}.Encode()
		muts = append(muts, Mutation{Op: OpInsert, PK: pk(id), Record: rec})
	}
	rec2 := workload.Tweet{ID: 1, UserID: 3, Creation: int64(n) + 100, Message: []byte("v2")}.Encode()
	muts = append(muts, Mutation{Op: OpUpsert, PK: pk(1), Record: rec2})
	return append(muts, Mutation{Op: OpDelete, PK: pk(2)})
}

func TestApplyBatchRoutingAndOrder(t *testing.T) {
	const shards, n = 3, 500
	db := newRoutedDB(t, shards)
	if err := db.ApplyBatch(insertBatch(n)); err != nil {
		t.Fatal(err)
	}

	// Every key lives on exactly the shard the hash names.
	for id := uint64(1); id <= n; id++ {
		want := shardOf(pk(id), shards)
		for s := 0; s < shards; s++ {
			found, err := db.Shard(s).Primary().Get(pk(id), nil)
			if err != nil {
				t.Fatal(err)
			}
			if id == 2 {
				if found {
					t.Fatalf("deleted key 2 visible on shard %d", s)
				}
				continue
			}
			if found != (s == want) {
				t.Fatalf("key %d on shard %d: found=%v want shard %d", id, s, found, want)
			}
		}
	}
	rec, found, err := db.Get(pk(1))
	if err != nil || !found {
		t.Fatal("key 1 missing after upsert", err)
	}
	if u, _ := workload.UserIDOf(rec); string(u) != string(workload.UserKey(3)) {
		t.Fatal("same-key mutations applied out of order")
	}
}

func TestApplyBatchUnknownOp(t *testing.T) {
	db := newRoutedDB(t, 2)
	bad := []Mutation{{Op: Op(42), PK: pk(1)}}
	if err := db.ApplyBatch(bad); err == nil {
		t.Fatal("unknown op accepted")
	}
	if applied, err := db.ApplyBatchResults(bad); err == nil || applied[0] {
		t.Fatalf("unknown op reported applied=%v err=%v", applied, err)
	}
}

// TestBatchOwnedByOneShard drives both applyBatch paths on a 2-shard store
// with a read cache: a batch whose keys all hash to shard 0 (applied on the
// caller's goroutine, no regrouping) and one that spans both shards. Each
// must report what applying its mutations one by one reports, and each must
// drop its keys' cache entries, positive and negative alike.
func TestBatchOwnedByOneShard(t *testing.T) {
	const shards, keys = 2, 80
	opts := routedOptions(shards)
	opts.ReadCache = ReadCacheOptions{Bytes: 1 << 20}
	db := openRouted(t, opts)
	ref := newRoutedDB(t, shards) // no cache: the engine's answer

	record := func(id uint64, round int64) []byte {
		return workload.Tweet{ID: id, UserID: uint32(id % 10), Creation: round, Message: []byte("m")}.Encode()
	}
	// Per key an insert (applied only when absent), a delete (only when
	// present) or an upsert followed by a duplicate insert (never applied).
	batchOf := func(ids []uint64, round int64) []Mutation {
		var muts []Mutation
		for _, id := range ids {
			switch id % 3 {
			case 0:
				muts = append(muts, Mutation{Op: OpInsert, PK: pk(id), Record: record(id, round)})
			case 1:
				muts = append(muts, Mutation{Op: OpDelete, PK: pk(id)})
			case 2:
				muts = append(muts,
					Mutation{Op: OpUpsert, PK: pk(id), Record: record(id, round)},
					Mutation{Op: OpInsert, PK: pk(id), Record: record(id, round+1)})
			}
		}
		return muts
	}
	oneByOne := func(muts []Mutation) []bool {
		applied := make([]bool, len(muts))
		for i, m := range muts {
			var err error
			switch m.Op {
			case OpInsert:
				applied[i], err = ref.Insert(m.PK, m.Record)
			case OpDelete:
				applied[i], err = ref.Delete(m.PK)
			case OpUpsert:
				applied[i], err = true, ref.Upsert(m.PK, m.Record)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return applied
	}
	// readAll reads every key from db; with check set it compares each
	// answer with the reference store's.
	readAll := func(check bool) {
		t.Helper()
		for id := uint64(1); id <= keys; id++ {
			got, found, err := db.Get(pk(id))
			if err != nil {
				t.Fatal(err)
			}
			if !check {
				continue
			}
			want, wantFound, err := ref.Get(pk(id))
			if err != nil {
				t.Fatal(err)
			}
			if found != wantFound || string(got) != string(want) {
				t.Fatalf("key %d: got found=%v %q, want found=%v %q (stale cache entry?)", id, found, got, wantFound, want)
			}
		}
	}

	// Keys 1..keys/2 exist before either batch.
	var seed []Mutation
	for id := uint64(1); id <= keys/2; id++ {
		seed = append(seed, Mutation{Op: OpUpsert, PK: pk(id), Record: record(id, 0)})
	}
	if err := db.ApplyBatch(seed); err != nil {
		t.Fatal(err)
	}
	oneByOne(seed)

	var onShard0, all []uint64
	for id := uint64(1); id <= keys; id++ {
		all = append(all, id)
		if shardOf(pk(id), shards) == 0 {
			onShard0 = append(onShard0, id)
		}
	}
	if len(onShard0) < 10 || len(onShard0) == keys {
		t.Fatalf("%d of %d keys on shard 0: the test needs both shards populated", len(onShard0), keys)
	}
	for round, ids := range [][]uint64{onShard0, all} {
		muts := batchOf(ids, int64(round+1))
		readAll(false) // fill the cache with every key's current answer
		got, err := db.ApplyBatchResults(muts)
		if err != nil {
			t.Fatal(err)
		}
		want := oneByOne(muts)
		for i := range muts {
			if got[i] != want[i] {
				t.Fatalf("round %d mutation %d (op %d key %x): applied=%v, one by one %v", round, i, muts[i].Op, muts[i].PK, got[i], want[i])
			}
		}
		readAll(true)
	}
}

// TestAggregateStats checks the fold of per-shard snapshots into the top
// level: sums everywhere except the three times, which are the maximum
// because shards progress concurrently on independent devices.
func TestAggregateStats(t *testing.T) {
	db := newRoutedDB(t, 3)
	if err := db.ApplyBatch(insertBatch(2000)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	agg := db.Stats()
	if agg.Shards != 3 || len(agg.PerShard) != 3 {
		t.Fatalf("stats shape: shards=%d per=%d", agg.Shards, len(agg.PerShard))
	}
	dur := func(s string) time.Duration {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	var sum Stats
	var sim, ingest, mnt, simTotal time.Duration
	for _, s := range agg.PerShard {
		sum.Ingested += s.Ingested
		sum.Ignored += s.Ignored
		sum.PrimaryComponents += s.PrimaryComponents
		sum.DiskBytesWritten += s.DiskBytesWritten
		sum.Counters = sum.Counters.Add(s.Counters)
		sim, ingest, mnt = max(sim, dur(s.SimulatedTime)), max(ingest, dur(s.IngestTime)), max(mnt, dur(s.MaintenanceTime))
		simTotal += dur(s.SimulatedTime)
	}
	if agg.Ingested != sum.Ingested || agg.Ignored != sum.Ignored || agg.Ingested != 2002 ||
		agg.PrimaryComponents != sum.PrimaryComponents || agg.PrimaryComponents < 3 ||
		agg.DiskBytesWritten != sum.DiskBytesWritten || agg.DiskBytesWritten == 0 {
		t.Fatalf("bad sums: aggregate %+v, per-shard sum %+v", agg, sum)
	}
	if agg.Counters != sum.Counters || agg.Counters.PagesWritten == 0 {
		t.Fatalf("counters not summed: aggregate %+v, per-shard sum %+v", agg.Counters, sum.Counters)
	}
	if dur(agg.SimulatedTime) != sim || dur(agg.IngestTime) != ingest || dur(agg.MaintenanceTime) != mnt {
		t.Fatalf("times must be the max over shards: got %s/%s/%s want %s/%s/%s",
			agg.SimulatedTime, agg.IngestTime, agg.MaintenanceTime, sim, ingest, mnt)
	}
	if sim == 0 || sim >= simTotal {
		t.Fatalf("max %s is not below the sum %s: the shards' clocks did not all advance", sim, simTotal)
	}
}

// TestBatchScratchReuseMatchesFresh drives cross-shard ApplyBatchResults
// calls from several goroutines at once on a durable three-shard store, so
// the recycled batch scratches — groups, positions, reports and log batches
// — pass from call to call and between goroutines. Every few rounds a batch
// ends in an unknown op, which fails its shard, and the next one is clean.
// Each report, and every key's read-back at the end, must match a one-shard
// store given the same batches; and a scratch taken back after a failed
// batch must hold none of its mutations. Run it under -race.
func TestBatchScratchReuseMatchesFresh(t *testing.T) {
	const (
		shards, writers, rounds, keys = 3, 4, 24, 40
		badOp                         = Op(99)
	)
	opts := routedOptions(shards)
	db := openRouted(t, opts)
	ref := newRoutedDB(t, 1)

	// Writer w owns ids w*1000+1 .. w*1000+keys, so its batches commute
	// with every other writer's. An unknown op is always a batch's last
	// mutation: every mutation before it applies on both stores, whichever
	// shard fails.
	batchOf := func(w, round int) []Mutation {
		var muts []Mutation
		for k := uint64(1); k <= keys; k++ {
			id := uint64(w)*1000 + k
			rec := workload.Tweet{ID: id, UserID: uint32(id % 10), Creation: int64(round), Message: []byte("m")}.Encode()
			switch (id + uint64(round)) % 3 {
			case 0:
				muts = append(muts, Mutation{Op: OpInsert, PK: pk(id), Record: rec})
			case 1:
				muts = append(muts, Mutation{Op: OpDelete, PK: pk(id)})
			case 2:
				muts = append(muts, Mutation{Op: OpUpsert, PK: pk(id), Record: rec},
					Mutation{Op: OpInsert, PK: pk(id), Record: rec})
			}
		}
		if round%4 == 3 {
			muts = append(muts, Mutation{Op: badOp, PK: pk(uint64(w)*1000 + uint64(round))})
		}
		return muts
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				muts := batchOf(w, round)
				want, wantErr := ref.ApplyBatchResults(muts)
				got, err := db.ApplyBatchResults(muts)
				if (err != nil) != (wantErr != nil) || (err != nil) != (round%4 == 3) {
					t.Errorf("writer %d round %d: error %v, one-shard store %v", w, round, err, wantErr)
					return
				}
				if !slices.Equal(got, want) {
					t.Errorf("writer %d round %d: applied %v, one-shard store %v", w, round, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		for k := uint64(1); k <= keys; k++ {
			id := uint64(w)*1000 + k
			got, found, err := db.Get(pk(id))
			want, wantFound, wantErr := ref.Get(pk(id))
			if err != nil || wantErr != nil {
				t.Fatal(err, wantErr)
			}
			if found != wantFound || !bytes.Equal(got, want) {
				t.Fatalf("key %d: found=%v %q, one-shard store found=%v %q", id, found, got, wantFound, want)
			}
		}
	}

	// A failed batch's scratch goes back holding none of its mutations. With
	// one P the pool hands back the scratch just put; -race drops a random
	// quarter of Puts, so try a few failed batches before giving up.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for attempt := 0; ; attempt++ {
		if _, err := db.ApplyBatchResults(batchOf(0, 3)); err == nil {
			t.Fatal("a batch with an unknown op succeeded")
		}
		sc := batchScratchPool.Get().(*batchScratch)
		used := false
		for s := range sc.shards {
			g := &sc.shards[s]
			used = used || cap(g.muts) > 0
			if !allZero(g.muts[:cap(g.muts)]) {
				t.Fatalf("shard %d's group in a recycled scratch still holds a failed batch's mutations", s)
			}
		}
		batchScratchPool.Put(sc)
		if used {
			break
		}
		if attempt == 10 {
			t.Fatal("the pool never handed back a used scratch")
		}
	}
}

// TestShardAnswersReleaseKeepsNothing: the recycled per-shard answers start
// every query empty, and release drops every reference into the query's
// arenas and request, merged answer included, so a pooled shardAnswers
// keeps no answer alive.
func TestShardAnswersReleaseKeepsNothing(t *testing.T) {
	db := newRoutedDB(t, 3)
	if _, err := db.ApplyBatchResults(insertBatch(600)); err != nil {
		t.Fatal(err)
	}
	lo, hi := workload.UserKey(2), workload.UserKey(5)
	var sa *shardAnswers
	for _, opts := range []query.SecondaryQueryOptions{
		{Validation: query.Direct, Lookup: query.DefaultLookupConfig()},
		{Validation: query.NoValidation, IndexOnly: true},
	} {
		sa = getShardAnswers() // the one just released, or a fresh one
		sa.forShards(len(db.parts))
		for i, r := range sa.res {
			if len(r.Records)+len(r.Keys) != 0 {
				t.Fatalf("shard %d's recycled answer starts non-empty", i)
			}
		}
		sa.index, sa.lo, sa.hi, sa.opts = "user", lo, hi, opts
		if err := db.fanOut(&sa.join, nil, sa); err != nil {
			t.Fatal(err)
		}
		if n := len(sa.merge().Records) + len(sa.merged.Keys); n < 100 {
			t.Fatalf("%d results; the case measures nothing", n)
		}
		sa.release()
		for i, r := range sa.res {
			if !allZero(r.Records[:cap(r.Records)]) || !allZero(r.Keys[:cap(r.Keys)]) {
				t.Fatalf("shard %d's released answer still references the query's arena", i)
			}
		}
		m := sa.merged
		if !allZero(m.Records[:cap(m.Records)]) || !allZero(m.Keys[:cap(m.Keys)]) {
			t.Fatal("the released merged answer still references the query's arenas")
		}
		if sa.index != "" || sa.lo != nil || sa.hi != nil || sa.scan {
			t.Fatal("a released shardAnswers still holds its request")
		}
	}
}

// TestBatchFanOutAllocatesNothing: a 64-record batch spanning two shards
// hands one shard's group to a parked helper and joins it through its
// scratch's own join, so the fan-out itself allocates nothing. The legs
// count the mutations they are handed instead of applying them.
func TestBatchFanOutAllocatesNothing(t *testing.T) {
	db := newRoutedDB(t, 2)
	muts := insertBatch(62) // and an upsert and a delete: 64
	sc := new(batchScratch)
	sc.forShards(2)
	for i := range muts {
		sc.owners = append(sc.owners, shardOf(muts[i].PK, 2))
	}
	sc.group(muts)
	if len(muts) != 64 || sc.counts[0] == 0 || sc.counts[1] == 0 {
		t.Fatalf("%d mutations, %v per shard: the batch must span both shards", len(muts), sc.counts)
	}
	legs := &groupCounter{sc: sc}
	fan := func() {
		if err := db.fanOut(&sc.join, sc.counts, legs); err != nil {
			t.Fatal(err)
		}
	}
	for range 10 { // the first fan-outs start the helpers
		fan()
	}
	if n := testing.AllocsPerRun(100, fan); n != 0 {
		t.Errorf("%v allocations per fan-out, want 0", n)
	}
	if got := legs.seen.Load(); got != 111*64 {
		t.Errorf("legs were handed %d mutations over 111 fan-outs, want %d", got, 111*64)
	}
}

// groupCounter is a fan-out leg that counts the mutations of the groups it
// is handed.
type groupCounter struct {
	sc   *batchScratch
	seen atomic.Int64
}

func (c *groupCounter) run(s int, _ *core.Dataset) error {
	c.seen.Add(int64(len(c.sc.shards[s].muts)))
	return nil
}

// allZero reports whether every element of s is its zero value.
func allZero[T any](s []T) bool {
	for i := range s {
		if !reflect.ValueOf(s[i]).IsZero() {
			return false
		}
	}
	return true
}
