package lsmstore_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/lsmstore"
)

// Allocation regression guards for the disk-backend write path: the WAL
// encode buffers, the filedev staging buffer and the commit path are
// pooled, so per-write allocations must stay flat. Run with:
//
//	go test -bench 'BenchmarkDisk' -benchtime=1000x ./lsmstore
//
// A single write pays its own commit fsync, a batched one a 64th of the
// batch's one covering fsync, which shows in their ns/op.

func benchDiskDB(b *testing.B) *lsmstore.DB {
	b.Helper()
	db, err := lsmstore.Open(diskOptions(lsmstore.Validation, b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// BenchmarkDiskSingleWrite measures one committed upsert on the file
// backend — fsync included — with allocation reporting.
func BenchmarkDiskSingleWrite(b *testing.B) {
	db := benchDiskDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i)
		if err := db.Upsert(tweetPK(id), tweetRec(id, uint32(id%40), int64(id%1000))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiskApplyBatch measures a 64-write ApplyBatch on the file
// backend: one covering fsync per batch.
func BenchmarkDiskApplyBatch(b *testing.B) {
	const batch = 64
	db := benchDiskDB(b)
	muts := make([]lsmstore.Mutation, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range muts {
			id := uint64(i)*batch + uint64(j)
			muts[j] = lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: tweetPK(id), Record: tweetRec(id, uint32(id%40), int64(id%1000))}
		}
		if err := db.ApplyBatch(muts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDiskWriteAllocGuard is the allocation regression gate for the write
// path on the file backend: a record's bytes are copied once per layer and
// nothing is allocated per entry that can be allocated per page or per
// slab. It measures 6 objects per single write and 5 per batched mutation
// (it measured 37 and 51 when the B+-tree builder kept two slices per
// entry, the memtable a node, a tower and a key per Put, and the lock table
// a lock and a condition variable per write). Two of them are this test's
// own key and record; the rest are the memtable's copy of the value, the
// lock table's copy of the key, the log batch's bookkeeping and the builds'
// per-page copies spread over the entries. Each ceiling is twice the
// measured figure: any per-entry allocation put back on the flush, merge or
// Put path — there are several entries of each per write — goes over it.
// Skipped unless LSMSTORE_BENCH_SMOKE=1.
func TestDiskWriteAllocGuard(t *testing.T) {
	if os.Getenv("LSMSTORE_BENCH_SMOKE") == "" {
		t.Skip("set LSMSTORE_BENCH_SMOKE=1 to run the allocation gate")
	}
	db, err := lsmstore.Open(diskOptions(lsmstore.Validation, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var seq uint64
	single := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq++
			if err := db.Upsert(tweetPK(seq), tweetRec(seq, uint32(seq%40), int64(seq%1000))); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := single.AllocsPerOp(); got > 12 {
		t.Errorf("single disk write allocates %d objects/op, ceiling 12 — a per-entry allocation is back on the write path", got)
	}
	const batch = 64
	muts := make([]lsmstore.Mutation, batch)
	batched := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range muts {
				seq++
				muts[j] = lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: tweetPK(seq), Record: tweetRec(seq, uint32(seq%40), int64(seq%1000))}
			}
			if err := db.ApplyBatch(muts); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := batched.AllocsPerOp() / batch; got > 10 {
		t.Errorf("batched disk write allocates %d objects/mutation, ceiling 10", got)
	}
	t.Logf("disk write allocations: single %d/op, batched %d/mutation",
		single.AllocsPerOp(), batched.AllocsPerOp()/batch)
}

// TestGroupCommitSharesFsyncs is the CI gate on fsync amortization: the
// upserts of concurrent writers on the disk backend must cost at most half
// as many WAL fsyncs as writes — commit groups of two or more on average.
// It counts fsyncs rather than timing them, so it does not depend on how
// fast the machine's disk is. Skipped unless LSMSTORE_BENCH_SMOKE=1 (it
// issues a few hundred real fsyncs).
func TestGroupCommitSharesFsyncs(t *testing.T) {
	if os.Getenv("LSMSTORE_BENCH_SMOKE") == "" {
		t.Skip("set LSMSTORE_BENCH_SMOKE=1 to run the group-commit fsync gate")
	}
	const (
		writers = 8
		perW    = 400
		writes  = writers * perW
	)
	db, err := lsmstore.Open(diskOptions(lsmstore.Validation, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	before := db.Stats().Counters
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				id := uint64(w)<<32 | uint64(i)
				if err := db.Upsert(tweetPK(id), tweetRec(id, uint32(w), int64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	d := db.Stats().Counters.Sub(before)
	group := float64(d.GroupCommitWaiters) / float64(max(d.GroupCommitBatches, 1))
	t.Logf("disk backend, %d concurrent writers: %d writes, %d WAL fsyncs, mean commit group %.1f",
		writers, writes, d.WALFsyncs, group)
	if d.WALFsyncs > writes/2 {
		t.Fatalf("%d concurrent writes cost %d WAL fsyncs, want at most %d: commit groups are not forming",
			writes, d.WALFsyncs, writes/2)
	}
	fmt.Fprintf(os.Stderr, "group-commit smoke: %d WAL fsyncs for %d writes, mean group %.1f\n", d.WALFsyncs, writes, group)
}
