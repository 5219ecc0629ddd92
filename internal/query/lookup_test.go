package query

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/lsm"
)

func TestFetchRecordsEmpty(t *testing.T) {
	d := newDataset(t, core.Eager, nil)
	err := new(scratch).fetchRecords(d.Primary(), nil, DefaultLookupConfig(), func(kv.Entry) {
		t.Fatal("emit on empty key list")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFetchRecordsSingleKeyBatches(t *testing.T) {
	d := newDataset(t, core.Eager, nil)
	for i := uint64(0); i < 500; i++ {
		d.Upsert(kv.EncodeUint64(i), mkRecord(uint32(i%10), 1, 40))
	}
	d.FlushAll()
	// BatchMemory below one record forces single-key batches; answers
	// must still be complete.
	cfg := LookupConfig{BatchMemory: 1, Stateful: true}
	var keys []Key
	for i := uint64(0); i < 500; i += 7 {
		keys = append(keys, Key{PK: kv.EncodeUint64(i)})
	}
	got := 0
	if err := new(scratch).fetchRecords(d.Primary(), keys, cfg, func(kv.Entry) { got++ }); err != nil {
		t.Fatal(err)
	}
	if got != len(keys) {
		t.Fatalf("fetched %d of %d", got, len(keys))
	}
}

// TestStatefulCursorCarriesLeafAcrossBatches: each component has one
// cursor for the whole fetch, so with one key per batch a stateful cursor
// still carries its leaf from batch to batch, and sorted keys that fall in
// one leaf of one component cost one root-to-leaf descent of buffer-cache
// accesses, not one descent per batch.
func TestStatefulCursorCarriesLeafAcrossBatches(t *testing.T) {
	d := newDataset(t, core.Eager, func(c *core.Config) { c.MemoryBudget = 1 << 20 })
	for i := uint64(0); i < 2000; i++ {
		d.Upsert(kv.EncodeUint64(i), mkRecord(1, 1, 40))
	}
	d.FlushAll()
	if n := d.Primary().NumDiskComponents(); n != 1 {
		t.Fatalf("%d primary components, want 1", n)
	}
	cfg := LookupConfig{BatchMemory: recordSize, Stateful: true} // one key per batch
	accesses := func(keys []Key) int64 {
		t.Helper()
		c := d.Env().Counters
		before := c.CacheHits.Load() + c.CacheMisses.Load()
		got := 0
		if err := new(scratch).fetchRecords(d.Primary(), keys, cfg, func(kv.Entry) { got++ }); err != nil {
			t.Fatal(err)
		}
		if got != len(keys) {
			t.Fatalf("fetched %d of %d", got, len(keys))
		}
		return c.CacheHits.Load() + c.CacheMisses.Load() - before
	}
	descent := accesses([]Key{{PK: kv.EncodeUint64(0)}})
	if descent < 2 {
		t.Fatalf("a descent reads %d pages; the tree needs an internal level", descent)
	}
	// Eight ~60-byte entries at the start of the key space share the
	// first 4 KiB leaf.
	var keys []Key
	for i := uint64(0); i < 8; i++ {
		keys = append(keys, Key{PK: kv.EncodeUint64(i)})
	}
	if got := accesses(keys); got != descent {
		t.Fatalf("%d single-key batches in one leaf read %d pages; one descent is %d", len(keys), got, descent)
	}
}

func TestFetchRecordsMissingKeysSilent(t *testing.T) {
	d := newDataset(t, core.Eager, nil)
	for i := uint64(0); i < 100; i++ {
		d.Upsert(kv.EncodeUint64(i), mkRecord(1, 1, 10))
	}
	d.FlushAll()
	keys := []Key{
		{PK: kv.EncodeUint64(5)},
		{PK: kv.EncodeUint64(100000)}, // absent
		{PK: kv.EncodeUint64(7)},
	}
	for _, batchMemory := range []int{0, 1 << 20} {
		got := 0
		cfg := LookupConfig{BatchMemory: batchMemory}
		if err := new(scratch).fetchRecords(d.Primary(), keys, cfg, func(kv.Entry) { got++ }); err != nil {
			t.Fatal(err)
		}
		if got != 2 {
			t.Fatalf("batch memory %d: fetched %d, want 2", batchMemory, got)
		}
	}
}

// TestPIDPruningSafeUnderUpdates pins that nothing is pruned without
// Timestamp validation: a key updated without a secondary-key change has its
// newest version in a newer component than its surviving secondary entry,
// whose timestamp therefore must not prune the fetch.
func TestPIDPruningSafeUnderUpdates(t *testing.T) {
	d := newDataset(t, core.Eager, nil)
	// Insert with user 5, then upsert the SAME user but a new creation
	// time: Eager skips secondary maintenance (key unchanged), so the
	// secondary entry stays in the old component while the record moves
	// to a newer one.
	pk := kv.EncodeUint64(77)
	if _, err := d.Insert(pk, mkRecord(5, 100, 40)); err != nil {
		t.Fatal(err)
	}
	d.FlushAll()
	if err := d.Upsert(pk, mkRecord(5, 999, 40)); err != nil {
		t.Fatal(err)
	}
	d.FlushAll()

	si := d.Secondary("user")
	res, err := SecondaryRange(d, si, userKey(5), userKey(5), SecondaryQueryOptions{
		Validation: NoValidation,
		Lookup:     LookupConfig{BatchMemory: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("got %d records", len(res.Records))
	}
	if cr, _ := recCreation(res.Records[0].Value); cr != 999 {
		t.Fatalf("the fetch returned the stale version (creation %d)", cr)
	}
}

// TestEagerAnswersEveryMethod pins that an Eager dataset answers every
// validation method as NoValidation: an update that keeps its secondary key
// leaves the old index entry behind a newer primary-key-index timestamp, so
// Timestamp validation, taken at its word, would drop the record.
func TestEagerAnswersEveryMethod(t *testing.T) {
	d := newDataset(t, core.Eager, nil)
	pk := kv.EncodeUint64(77)
	if _, err := d.Insert(pk, mkRecord(5, 100, 40)); err != nil {
		t.Fatal(err)
	}
	d.FlushAll()
	if err := d.Upsert(pk, mkRecord(5, 999, 40)); err != nil {
		t.Fatal(err)
	}
	d.FlushAll()

	si := d.Secondary("user")
	for _, m := range []ValidationMethod{NoValidation, Direct, Timestamp, DeletedKeyCheck} {
		for _, indexOnly := range []bool{false, true} {
			res, err := SecondaryRange(d, si, userKey(5), userKey(5), SecondaryQueryOptions{
				Validation: m, IndexOnly: indexOnly, Lookup: DefaultLookupConfig(),
			})
			if err != nil {
				t.Fatalf("%v index-only=%v: %v", m, indexOnly, err)
			}
			if n := len(res.Records) + len(res.Keys); n != 1 {
				t.Fatalf("%v index-only=%v: %d answers, want 1", m, indexOnly, n)
			}
		}
	}
}

// TestTimestampFetchTestsOneBloomFilterPerKey: after Timestamp validation a
// key's version lives in memory or in the one disk component whose
// timestamp range holds it, so the fetch tests at most one Bloom filter per
// key however many components there are. The fetch's tests are the query's
// less those of the same query answered index-only, which stops after
// validation.
func TestTimestampFetchTestsOneBloomFilterPerKey(t *testing.T) {
	d := newDataset(t, core.Validation, func(c *core.Config) { c.Policy = lsm.NoMerge{} })
	upsert := func(pk uint64, user uint32) {
		t.Helper()
		if err := d.Upsert(kv.EncodeUint64(pk), mkRecord(user, int64(pk), 40)); err != nil {
			t.Fatal(err)
		}
	}
	const perFlush = 100
	for round := uint64(0); round < 5; round++ {
		for i := uint64(0); i < perFlush; i++ {
			upsert(round*perFlush+i, uint32(i%10))
		}
		// Move some older keys to another user: their old entries go
		// obsolete and their records to a newer component.
		for pk := uint64(0); pk < round*perFlush; pk += 9 {
			upsert(pk, uint32(pk+round)%10)
		}
		if round < 4 { // the last round stays in memory
			if err := d.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := d.Primary().NumDiskComponents(); n != 4 {
		t.Fatalf("%d primary components, want 4", n)
	}
	si := d.Secondary("user")
	query := func(indexOnly bool) (bloomTests int64, answers int) {
		t.Helper()
		before := d.Env().Counters.BloomTests.Load()
		res, err := SecondaryRange(d, si, userKey(2), userKey(4), SecondaryQueryOptions{
			Validation: Timestamp, IndexOnly: indexOnly, Lookup: DefaultLookupConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return d.Env().Counters.BloomTests.Load() - before, len(res.Records) + len(res.Keys)
	}
	all, records := query(false)
	validation, keys := query(true)
	if records == 0 || records != keys {
		t.Fatalf("setup: %d records fetched for %d validated keys", records, keys)
	}
	fetch := all - validation
	if fetch > int64(records) {
		t.Fatalf("the fetch tested %d Bloom filters for %d keys; at most one per key", fetch, records)
	}
	t.Logf("the fetch tested %d Bloom filters for %d keys", fetch, records)
}

// TestTimestampFetchFollowsLaterUpdates: a key validated at one version and
// then updated with the same secondary key, flushed and merged before the
// fetch, is still answered. Under Validation the answer is the validated
// version or the newer one; under Mutable-bitmap the validated version's
// bit is set, so only the newer one, in a component the first pass prunes,
// can answer.
func TestTimestampFetchFollowsLaterUpdates(t *testing.T) {
	for _, strategy := range []core.Strategy{core.Validation, core.MutableBitmap} {
		t.Run(strategy.String(), func(t *testing.T) {
			d := newDataset(t, strategy, func(c *core.Config) { c.Policy = lsm.NoMerge{} })
			upsertFlush := func(pk uint64, creation int64) {
				t.Helper()
				if err := d.Upsert(kv.EncodeUint64(pk), mkRecord(5, creation, 40)); err != nil {
					t.Fatal(err)
				}
				if err := d.FlushAll(); err != nil {
					t.Fatal(err)
				}
			}
			pk := kv.EncodeUint64(7)
			upsertFlush(7, 100)
			var validated int64 // the version's timestamp, as validation leaves it
			if _, err := d.Primary().Get(pk, func(e kv.Entry) { validated = e.TS }); err != nil || validated == 0 {
				t.Fatalf("setup: validated timestamp %d, %v", validated, err)
			}
			upsertFlush(8, 100)
			upsertFlush(7, 200) // after validation, before the fetch
			fetch := func(stage string) {
				t.Helper()
				var got []int64
				err := new(scratch).fetchRecords(d.Primary(), []Key{{PK: pk, TS: validated}}, DefaultLookupConfig(),
					func(e kv.Entry) {
						cr, _ := recCreation(e.Value)
						got = append(got, cr)
					})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 1 || (got[0] != 200 && (got[0] != 100 || strategy == core.MutableBitmap)) {
					t.Fatalf("%s: fetched creations %v", stage, got)
				}
			}
			fetch("flushed")
			// Merge the two newer components: the validated version's
			// component stays, and the merged one does not hold its
			// timestamp.
			if strategy == core.MutableBitmap {
				if _, err := d.MergePrimaryRange(1, 3, 1, 3); err != nil {
					t.Fatal(err)
				}
			} else {
				res, err := d.Primary().Merge(lsm.MergeSpec{Lo: 1, Hi: 3})
				if err == nil {
					err = d.Primary().Install(res)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if n := d.Primary().NumDiskComponents(); n != 2 {
				t.Fatalf("setup: %d primary components after the merge, want 2", n)
			}
			fetch("merged")
		})
	}
}

func TestSortRecordsByPK(t *testing.T) {
	d := newDataset(t, core.Eager, nil)
	records := []kv.Entry{
		{Key: kv.EncodeUint64(3)},
		{Key: kv.EncodeUint64(1)},
		{Key: kv.EncodeUint64(2)},
	}
	SortRecordsByPK(d.Env(), records)
	for i, want := range []uint64{1, 2, 3} {
		if kv.DecodeUint64(records[i].Key) != want {
			t.Fatalf("order broken at %d", i)
		}
	}
}

func TestSecondaryRangeOnEmptyDataset(t *testing.T) {
	d := newDataset(t, core.Validation, nil)
	si := d.Secondary("user")
	for _, m := range []ValidationMethod{NoValidation, Direct, Timestamp} {
		res, err := SecondaryRange(d, si, userKey(0), userKey(10), SecondaryQueryOptions{
			Validation: m, Lookup: DefaultLookupConfig(),
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(res.Records)+len(res.Keys) != 0 {
			t.Fatalf("%v: non-empty result on empty dataset", m)
		}
	}
}

func TestFilterScanEmptyAndDisjoint(t *testing.T) {
	for _, strategy := range []core.Strategy{core.Eager, core.Validation, core.MutableBitmap} {
		d := newDataset(t, strategy, nil)
		// empty dataset
		if err := FilterScan(d, 0, 100, func(kv.Entry) { t.Fatal("emit on empty") }); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 200; i++ {
			d.Upsert(kv.EncodeUint64(i), mkRecord(1, int64(1000+i), 20))
		}
		d.FlushAll()
		// disjoint window: filters prune everything
		count := 0
		if err := FilterScan(d, 5000, 6000, func(kv.Entry) { count++ }); err != nil {
			t.Fatal(err)
		}
		if count != 0 {
			t.Fatalf("%v: disjoint scan returned %d", strategy, count)
		}
	}
}

// TestValidationQueryNeverMissesNewUpdates is the Section 4.2 correctness
// rule under randomized flush timing: a filter scan right after updates of
// OLD records must reflect them even though the memory filter was only
// maintained with new values.
func TestValidationQueryNeverMissesNewUpdates(t *testing.T) {
	d := newDataset(t, core.Validation, nil)
	rng := rand.New(rand.NewSource(6))
	type row struct{ creation int64 }
	model := map[uint64]row{}
	for i := 0; i < 3000; i++ {
		pk := uint64(rng.Intn(400))
		cr := int64(1000 + i)
		d.Upsert(kv.EncodeUint64(pk), mkRecord(uint32(pk%10), cr, 30))
		model[pk] = row{cr}
		if i%500 == 499 {
			d.FlushAll()
		}
		if i%300 == 0 {
			lo := int64(1000 + rng.Intn(i+1))
			hi := lo + int64(rng.Intn(500))
			want := 0
			for _, r := range model {
				if r.creation >= lo && r.creation <= hi {
					want++
				}
			}
			got := 0
			if err := FilterScan(d, lo, hi, func(kv.Entry) { got++ }); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("op %d window [%d,%d]: got %d want %d", i, lo, hi, got, want)
			}
		}
	}
}
