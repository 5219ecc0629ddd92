package lsmstore_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/workload"
	"repro/lsmstore"
)

func TestCRUDRoundTrip(t *testing.T) {
	db, err := lsmstore.Open(tinyOptions(lsmstore.Eager))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pk := binary.BigEndian.AppendUint64(nil, 42)
	rec := workload.Tweet{ID: 42, UserID: 7, Creation: 1, Message: []byte("m")}.Encode()

	ok, err := db.Insert(pk, rec)
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if ok, _ := db.Insert(pk, rec); ok {
		t.Fatal("duplicate insert accepted")
	}
	got, found, err := db.Get(pk)
	if err != nil || !found || len(got) != len(rec) {
		t.Fatal("Get mismatch")
	}
	rec2 := workload.Tweet{ID: 42, UserID: 9, Creation: 2, Message: []byte("mm")}.Encode()
	if err := db.Upsert(pk, rec2); err != nil {
		t.Fatal(err)
	}
	got, _, _ = db.Get(pk)
	if u, _ := workload.UserIDOf(got); string(u) != string(workload.UserKey(9)) {
		t.Fatal("upsert not visible")
	}
	if ok, _ := db.Delete(pk); !ok {
		t.Fatal("delete failed")
	}
	if _, found, _ := db.Get(pk); found {
		t.Fatal("deleted key visible")
	}
}

func TestUnknownIndexError(t *testing.T) {
	db, _ := lsmstore.Open(tinyOptions(lsmstore.Eager))
	defer db.Close()
	if _, err := db.SecondaryQuery("nope", nil, nil, lsmstore.QueryOptions{}); err == nil {
		t.Fatal("unknown index accepted")
	}
}

// TestBadQueryRejected checks the two option sets no execution can honour
// — index-only with Direct validation (which used to answer with full
// records and no keys) and a validation method outside the enum (which used
// to answer empty with a nil error) — on one partition and on several.
func TestBadQueryRejected(t *testing.T) {
	for _, shards := range []int{1, 4} {
		db, err := lsmstore.Open(shardedOptions(lsmstore.Validation, shards))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.Upsert(tweetPK(1), tweetRec(1, 3, 1)); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []lsmstore.QueryOptions{
			{Validation: lsmstore.DirectValidation, IndexOnly: true},
			{Validation: lsmstore.ValidationMethod(4)},
			{Validation: lsmstore.ValidationMethod(-1), IndexOnly: true},
		} {
			res, err := db.SecondaryQuery("user", workload.UserKey(3), workload.UserKey(3), opts)
			if !errors.Is(err, lsmstore.ErrBadQuery) || res != nil {
				t.Fatalf("shards=%d %+v: res=%v err=%v, want ErrBadQuery", shards, opts, res, err)
			}
		}
		// The same range answers once the options make sense.
		res, err := db.SecondaryQuery("user", workload.UserKey(3), workload.UserKey(3),
			lsmstore.QueryOptions{Validation: lsmstore.DirectValidation})
		if err != nil || len(res.Records) != 1 {
			t.Fatalf("shards=%d direct query: res=%+v err=%v", shards, res, err)
		}
	}
}

// TestEagerAnswersEveryValidationMethod: an Eager store skips index
// maintenance when an update keeps the secondary key, so the key's index
// entry stays older than its primary key index entry. Timestamp validation
// used to drop that live record; an Eager store now answers every method
// from its current indexes, in memory and flushed alike.
func TestEagerAnswersEveryValidationMethod(t *testing.T) {
	db, err := lsmstore.Open(tinyOptions(lsmstore.Eager))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for creation := int64(1); creation <= 2; creation++ {
		if err := db.Upsert(tweetPK(1), tweetRec(1, 3, creation)); err != nil {
			t.Fatal(err)
		}
	}
	for _, stage := range []string{"in memory", "flushed"} {
		if stage == "flushed" {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range []lsmstore.ValidationMethod{lsmstore.NoValidation, lsmstore.DirectValidation, lsmstore.TimestampValidation} {
			res, err := db.SecondaryQuery("user", workload.UserKey(3), workload.UserKey(3), lsmstore.QueryOptions{Validation: m})
			if err != nil || len(res.Records) != 1 {
				t.Fatalf("%s, %v: res=%+v err=%v, want 1 record", stage, m, res, err)
			}
			if creation, _ := workload.CreationOf(res.Records[0].Value); creation != 2 {
				t.Fatalf("%s, %v: creation %d, want the update's", stage, m, creation)
			}
		}
	}
	if _, err := db.SecondaryQuery("user", nil, nil,
		lsmstore.QueryOptions{Validation: lsmstore.DirectValidation, IndexOnly: true}); !errors.Is(err, lsmstore.ErrBadQuery) {
		t.Fatalf("index-only Direct query: %v, want ErrBadQuery", err)
	}
}

// TestPublicAPIEquivalence drives the full public surface across all
// strategies against a model.
func TestPublicAPIEquivalence(t *testing.T) {
	strategies := []struct {
		s lsmstore.Strategy
		v lsmstore.ValidationMethod
	}{
		{lsmstore.Eager, lsmstore.NoValidation},
		{lsmstore.Validation, lsmstore.TimestampValidation},
		{lsmstore.Validation, lsmstore.DirectValidation},
		{lsmstore.MutableBitmap, lsmstore.TimestampValidation},
	}
	for _, sc := range strategies {
		t.Run(fmt.Sprintf("%v-%v", sc.s, sc.v), func(t *testing.T) {
			db, err := lsmstore.Open(tinyOptions(sc.s))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			rng := rand.New(rand.NewSource(8))
			type row struct {
				user     uint32
				creation int64
			}
			model := map[uint64]row{}
			for i := 0; i < 4000; i++ {
				id := uint64(rng.Intn(500) + 1)
				pk := binary.BigEndian.AppendUint64(nil, id)
				if rng.Intn(10) == 0 {
					db.Delete(pk)
					delete(model, id)
					continue
				}
				u := uint32(rng.Intn(40))
				cr := int64(i + 1)
				rec := workload.Tweet{ID: id, UserID: u, Creation: cr, Message: []byte("x")}.Encode()
				if err := db.Upsert(pk, rec); err != nil {
					t.Fatal(err)
				}
				model[id] = row{u, cr}
			}

			// Secondary query over a user range.
			for trial := 0; trial < 10; trial++ {
				lo := uint32(rng.Intn(35))
				hi := lo + uint32(rng.Intn(5))
				var want []uint64
				for id, r := range model {
					if r.user >= lo && r.user <= hi {
						want = append(want, id)
					}
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				res, err := db.SecondaryQuery("user", workload.UserKey(lo), workload.UserKey(hi),
					lsmstore.QueryOptions{Validation: sc.v})
				if err != nil {
					t.Fatal(err)
				}
				var got []uint64
				for _, r := range res.Records {
					got = append(got, binary.BigEndian.Uint64(r.PK))
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("trial %d: got %v want %v", trial, got, want)
				}
			}

			// Filter scan over a creation-time window.
			lo, hi := int64(1000), int64(3000)
			var want []uint64
			for id, r := range model {
				if r.creation >= lo && r.creation <= hi {
					want = append(want, id)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			var got []uint64
			if err := db.FilterScan(lo, hi, func(pk, _ []byte) {
				got = append(got, binary.BigEndian.Uint64(pk))
			}); err != nil {
				t.Fatal(err)
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("filter scan: got %d want %d rows", len(got), len(want))
			}
		})
	}
}

// TestFilterScanOrder pins the order FilterScan emits in: primary-key
// order, for every strategy at one and two shards. Keys 0..39 land in two
// disk components with interleaved keys (the evens, then the odds below 20)
// and the memtable (the odds from 21), so Mutable-bitmap, which reads each
// overlapping disk component on its own, finds them a component at a time
// and the merged answer must still be sorted. FilterScanWith's limit keeps
// the smallest keys.
func TestFilterScanOrder(t *testing.T) {
	type group struct{ from, step, to int }
	groups := []group{{0, 2, 40}, {1, 2, 20}, {21, 2, 40}} // flushed, flushed, in memory
	var sorted []uint64
	for id := range uint64(40) {
		sorted = append(sorted, id)
	}
	for _, strategy := range []lsmstore.Strategy{lsmstore.Eager, lsmstore.Validation, lsmstore.MutableBitmap, lsmstore.DeletedKey} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/shards=%d", strategy, shards), func(t *testing.T) {
				opts := tinyOptions(strategy)
				opts.Shards = shards
				db, err := lsmstore.Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				for i, g := range groups {
					for id := g.from; id < g.to; id += g.step {
						if err := db.Upsert(tweetPK(uint64(id)), tweetRec(uint64(id), uint32(id%8), int64(id))); err != nil {
							t.Fatal(err)
						}
					}
					if i < 2 {
						if err := db.Flush(); err != nil {
							t.Fatal(err)
						}
					}
				}
				var got []uint64
				if err := db.FilterScan(0, 1<<62, func(pk, _ []byte) {
					got = append(got, binary.BigEndian.Uint64(pk))
				}); err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(sorted) {
					t.Fatalf("FilterScan emitted %v, want %v", got, sorted)
				}
				for _, limit := range []int{1, 5, 25, 40, 41} {
					got = got[:0]
					if err := db.FilterScanWith(0, 1<<62, limit, func(res *lsmstore.QueryResult) {
						for _, r := range res.Records {
							got = append(got, binary.BigEndian.Uint64(r.PK))
						}
					}); err != nil {
						t.Fatal(err)
					}
					if want := sorted[:min(limit, len(sorted))]; fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("FilterScanWith with limit %d answered %v, want %v", limit, got, want)
					}
				}
			})
		}
	}
}

func TestRepairSecondaryIndexes(t *testing.T) {
	db, err := lsmstore.Open(tinyOptions(lsmstore.Validation))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		id := uint64(rng.Intn(300) + 1)
		pk := binary.BigEndian.AppendUint64(nil, id)
		rec := workload.Tweet{ID: id, UserID: uint32(rng.Intn(20)), Creation: int64(i), Message: []byte("y")}.Encode()
		if err := db.Upsert(pk, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.RepairSecondaryIndexes(); err != nil {
		t.Fatal(err)
	}
	// Query answers stay correct after repair.
	res, err := db.SecondaryQuery("user", workload.UserKey(0), workload.UserKey(19),
		lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range res.Records {
		if seen[string(r.PK)] {
			t.Fatal("duplicate pk after repair")
		}
		seen[string(r.PK)] = true
	}
}

func TestIndexOnlyQuery(t *testing.T) {
	db, _ := lsmstore.Open(tinyOptions(lsmstore.Validation))
	defer db.Close()
	for i := uint64(1); i <= 100; i++ {
		pk := binary.BigEndian.AppendUint64(nil, i)
		rec := workload.Tweet{ID: i, UserID: uint32(i % 10), Creation: int64(i), Message: []byte("z")}.Encode()
		db.Upsert(pk, rec)
	}
	res, err := db.SecondaryQuery("user", workload.UserKey(3), workload.UserKey(3),
		lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation, IndexOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) != 10 || len(res.Records) != 0 {
		t.Fatalf("index-only: %d keys %d records", len(res.Keys), len(res.Records))
	}
}

func TestStatsProgress(t *testing.T) {
	db, _ := lsmstore.Open(tinyOptions(lsmstore.Eager))
	defer db.Close()
	for i := uint64(1); i <= 2000; i++ {
		pk := binary.BigEndian.AppendUint64(nil, i)
		rec := workload.Tweet{ID: i, UserID: 1, Creation: int64(i), Message: make([]byte, 100)}.Encode()
		db.Upsert(pk, rec)
	}
	st := db.Stats()
	if st.Ingested != 2000 {
		t.Fatalf("Ingested = %d", st.Ingested)
	}
	if st.PrimaryComponents == 0 {
		t.Fatal("no flush happened; budget accounting broken?")
	}
	if st.DiskBytesWritten == 0 {
		t.Fatal("no disk writes recorded")
	}
	if st.SimulatedTime == "0s" {
		t.Fatal("virtual clock did not advance")
	}
}

func TestFlushIsExplicit(t *testing.T) {
	opts := tinyOptions(lsmstore.Eager)
	opts.MemoryBudget = 1 << 30 // never auto-flush
	db, _ := lsmstore.Open(opts)
	defer db.Close()
	pk := binary.BigEndian.AppendUint64(nil, 1)
	db.Upsert(pk, workload.Tweet{ID: 1, UserID: 1, Creation: 1, Message: []byte("m")}.Encode())
	if db.Stats().PrimaryComponents != 0 {
		t.Fatal("unexpected auto-flush")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().PrimaryComponents != 1 {
		t.Fatal("explicit flush did nothing")
	}
	if _, found, _ := db.Get(pk); !found {
		t.Fatal("record lost by flush")
	}
}
