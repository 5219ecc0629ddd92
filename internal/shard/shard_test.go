package shard

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/workload"
)

func newTestRouter(t *testing.T, n int) *Router {
	t.Helper()
	parts := make([]*Partition, n)
	for i := range parts {
		env := metrics.NewEnv()
		store := storage.NewStore(storage.NewDisk(storage.ScaledHDD(4<<10), env), 2<<20, env)
		ds, err := core.Open(core.Config{
			Store:        store,
			Strategy:     core.Validation,
			Secondaries:  []core.SecondarySpec{{Name: "user", Extract: workload.UserIDOf}},
			MemoryBudget: 32 << 10,
			UsePKIndex:   true,
			Policy:       lsm.NewTiering(0),
			BloomFPR:     0.01,
			Seed:         int64(i)*101 + 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = &Partition{DS: ds, Store: store, Env: env}
	}
	r, err := NewRouter(parts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func pk(id uint64) []byte { return binary.BigEndian.AppendUint64(nil, id) }

func TestShardOfDeterministicAndSpread(t *testing.T) {
	const n = 8
	hits := make([]int, n)
	for id := uint64(0); id < 4096; id++ {
		s := ShardOf(pk(id), n)
		if s < 0 || s >= n {
			t.Fatalf("shard %d out of range", s)
		}
		if again := ShardOf(pk(id), n); again != s {
			t.Fatalf("ShardOf not deterministic: %d vs %d", s, again)
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
	if ShardOf(pk(99), 1) != 0 {
		t.Fatal("single shard must own everything")
	}
}

func TestApplyBatchRoutingAndOrder(t *testing.T) {
	const shards = 3
	r := newTestRouter(t, shards)
	var muts []Mutation
	const n = 500
	for id := uint64(1); id <= n; id++ {
		rec := workload.Tweet{ID: id, UserID: uint32(id % 10), Creation: int64(id), Message: []byte("v1")}.Encode()
		muts = append(muts, Mutation{Op: OpInsert, PK: pk(id), Record: rec})
	}
	// Same-key program order: a later upsert then delete of key 1 must win.
	rec2 := workload.Tweet{ID: 1, UserID: 3, Creation: 600, Message: []byte("v2")}.Encode()
	muts = append(muts, Mutation{Op: OpUpsert, PK: pk(1), Record: rec2})
	muts = append(muts, Mutation{Op: OpDelete, PK: pk(2)})
	if err := r.ApplyBatch(muts); err != nil {
		t.Fatal(err)
	}

	// Every key lives on exactly the shard the hash names.
	for id := uint64(1); id <= n; id++ {
		want := ShardOf(pk(id), shards)
		for s := 0; s < shards; s++ {
			_, found, err := r.Partition(s).DS.Primary().Get(pk(id))
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
	e, found, err := r.DatasetFor(pk(1)).Primary().Get(pk(1))
	if err != nil || !found {
		t.Fatal("key 1 missing after upsert", err)
	}
	if u, _ := workload.UserIDOf(e.Value); string(u) != string(workload.UserKey(3)) {
		t.Fatal("same-key mutations applied out of order")
	}
}

func TestAggregateStats(t *testing.T) {
	per := []Stats{
		{SimulatedTime: 100, Ingested: 5, Ignored: 1, PrimaryComponents: 2, DiskBytesWritten: 10,
			Counters: metrics.Snapshot{RandomReads: 3}},
		{SimulatedTime: 250, Ingested: 7, Ignored: 0, PrimaryComponents: 1, DiskBytesWritten: 30,
			Counters: metrics.Snapshot{RandomReads: 4}},
	}
	agg := Aggregate(per)
	if agg.SimulatedTime != 250 {
		t.Fatalf("SimulatedTime must be the max, got %d", agg.SimulatedTime)
	}
	if agg.Ingested != 12 || agg.Ignored != 1 || agg.PrimaryComponents != 3 || agg.DiskBytesWritten != 40 {
		t.Fatalf("bad sums: %+v", agg)
	}
	if agg.Counters.RandomReads != 7 {
		t.Fatalf("counters not summed: %+v", agg.Counters)
	}
}

func TestRouterRejectsEmpty(t *testing.T) {
	if _, err := NewRouter(nil); err == nil {
		t.Fatal("empty router accepted")
	}
}

func TestApplyBatchUnknownOp(t *testing.T) {
	r := newTestRouter(t, 2)
	err := r.ApplyBatch([]Mutation{{Op: Op(42), PK: pk(1)}})
	if err == nil {
		t.Fatal("unknown op accepted")
	}
	if fmt.Sprint(err) == "" {
		t.Fatal("empty error")
	}
}
