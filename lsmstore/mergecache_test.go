package lsmstore_test

import (
	"testing"

	"repro/internal/storetest"
	"repro/lsmstore"
)

// TestMergesDoNotFillBufferCache ingests into a two-shard store with
// nothing reading it until every shard has merged at least four times. A
// merge reads its inputs once and deletes them, so it streams them past the
// buffer cache: the only frames a shard allocates are the few its merge
// scans pin at once (at most two per input) and a frame of the meta page's
// small size class for each new component, whose meta page opening the
// component reads through the cache. A merge that cached its inputs would allocate a frame for every
// page it read until the caches filled (340 frames here, where streaming
// allocates 64). Under the Deleted-key strategy a secondary merge also
// reads its inputs' deleted-key trees once, and streams them too.
func TestMergesDoNotFillBufferCache(t *testing.T) {
	for _, strategy := range []lsmstore.Strategy{lsmstore.Validation, lsmstore.DeletedKey} {
		t.Run(strategy.String(), func(t *testing.T) { testMergesDoNotFillBufferCache(t, strategy) })
	}
}

func testMergesDoNotFillBufferCache(t *testing.T, strategy lsmstore.Strategy) {
	const shards, minMerges = 2, 4
	opts := storetest.BaseOptions(strategy)
	opts.Shards = shards
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var (
		batch    []lsmstore.Mutation
		merges   [shards]int
		inputs   int   // the most inputs any merge had
		secMerge int64 // merges of the secondary index
		upserted uint64
	)
	for merges[0] < minMerges || merges[1] < minMerges {
		if upserted == 200_000 {
			t.Fatalf("merges per shard %v after %d records", merges, upserted)
		}
		for range 64 {
			id := upserted
			upserted++
			batch = append(batch, lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: storetest.TweetPK(id), Record: storetest.TweetRec(id, uint32(id%97), int64(id))})
		}
		if err := db.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
		merges, secMerge = [shards]int{}, 0
		for _, ev := range db.MaintJournal().Events() {
			if ev.Kind == "merge" {
				merges[ev.Shard]++
				inputs = max(inputs, ev.InputComponents)
				if ev.Tree == opts.Secondaries[0].Name {
					secMerge++
				}
			}
		}
	}
	s := db.Stats()
	components := s.Maintenance.FlushOutputComponents + s.Maintenance.Merges
	const slack = 8
	limit := components + 2*int64(inputs)*shards + slack
	if strategy == lsmstore.DeletedKey {
		// Each flushed or merged secondary component also carries a
		// deleted-key tree, whose meta page opens the same way. A secondary
		// merge probes the newer inputs' deleted-key trees for entries
		// their Bloom filters do not rule out; those probes are point
		// lookups and read through the cache (two frames per input).
		limit += s.Maintenance.Flushes + secMerge + 2*int64(inputs)*secMerge
	}
	if s.Counters.FrameAllocs > limit {
		t.Fatalf("%d frames allocated over %d new components and %d merges (%d secondary) of up to %d inputs, want at most %d",
			s.Counters.FrameAllocs, components, s.Maintenance.Merges, secMerge, inputs, limit)
	}
	t.Logf("%d frames allocated, %d reused, over %d new components and %d merges (%d secondary) of up to %d inputs; limit %d",
		s.Counters.FrameAllocs, s.Counters.FrameReuses, components, s.Maintenance.Merges, secMerge, inputs, limit)
}
