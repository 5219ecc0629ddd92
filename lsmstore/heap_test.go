package lsmstore_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/workload"
	"repro/lsmstore"
)

// memBytes is what a shard's memory components charge its budget.
func memBytes(d *core.Dataset) int {
	n := d.Primary().MemBytes() + d.PKIndex().MemBytes()
	for _, si := range d.Secondaries() {
		n += si.Tree.MemBytes()
	}
	return n
}

// settledHeap is the live heap after two collections, so what a sync.Pool
// parks between them is not counted.
func settledHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestFlushedBatchesLeaveTheHeap fills each shard of a served-shape store —
// two shards, Validation, the user index, a 4 MiB memory budget, background
// maintenance — to about 90 % of its budget, flushes, and bounds what the
// heap keeps over the store's empty baseline. After the flush every
// memtable is empty and every installed batch holds nothing, so what is
// left is the components' readers and filters and the recycled build and
// log buffers: far less than one memory budget. A batch kept reachable
// after its install holds its frozen memtables, about one budget per shard.
func TestFlushedBatchesLeaveTheHeap(t *testing.T) {
	const (
		shards = 2
		budget = 4 << 20
		fill   = budget * 9 / 10
		gate   = budget / 4 // for the whole store, both shards together
	)
	db, err := lsmstore.Open(lsmstore.Options{
		Dir:                t.TempDir(),
		Strategy:           lsmstore.Validation,
		Secondaries:        []lsmstore.SecondaryIndex{{Name: "user", Extract: workload.UserIDOf}},
		FilterExtract:      workload.CreationOf,
		Shards:             shards,
		MaintenanceWorkers: 2,
		MemoryBudget:       budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	base := settledHeap()

	msg := bytes.Repeat([]byte("m"), 500) // the served workload's message size
	muts := make([]lsmstore.Mutation, 64)
	filled := func() bool {
		for i := range shards {
			if memBytes(db.Shard(i)) < fill {
				return false
			}
		}
		return true
	}
	id := uint64(0)
	for !filled() {
		for i := range muts {
			tw := workload.Tweet{ID: id, UserID: uint32(id % 100_000), Creation: int64(id), Message: msg}
			muts[i] = lsmstore.Mutation{Op: kv.OpUpsert, PK: tw.PK(), Record: tw.Encode()}
			id++
		}
		if err := db.ApplyBatch(muts); err != nil {
			t.Fatal(err)
		}
	}
	charged := 0
	for i := range shards {
		charged += memBytes(db.Shard(i))
		if n := db.Shard(i).Primary().NumDiskComponents(); n != 0 {
			t.Fatalf("setup: shard %d flushed %d components before the test's flush; the fill must stay under the budget", i, n)
		}
	}
	clear(muts)
	filledHeap := settledHeap() - base

	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	kept := settledHeap() - base
	t.Logf("%d records: the memtables charge %d bytes and the heap grew %d; after the flush it keeps %d (gate %d)",
		id, charged, filledHeap, kept, gate)
	if kept > gate {
		t.Errorf("after the flush the heap keeps %d bytes over the empty store, want at most %d: a flushed batch is still reachable", kept, gate)
	}
	runtime.KeepAlive(db)
}
