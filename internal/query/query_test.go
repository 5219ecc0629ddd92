package query

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/lsm"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// The test record mirrors the paper's tweets: an 8-byte creation time, a
// 4-byte user id (the secondary key), and padding.
func mkRecord(userID uint32, creation int64, pad int) []byte {
	rec := make([]byte, 0, 12+pad)
	rec = kv.AppendUint64(rec, uint64(creation))
	rec = append(rec, byte(userID>>24), byte(userID>>16), byte(userID>>8), byte(userID))
	rec = append(rec, make([]byte, pad)...)
	return rec
}

func recUserID(rec []byte) ([]byte, bool) {
	if len(rec) < 12 {
		return nil, false
	}
	return rec[8:12], true
}

func recCreation(rec []byte) (int64, bool) {
	if len(rec) < 8 {
		return 0, false
	}
	return int64(kv.DecodeUint64(rec[:8])), true
}

func userKey(u uint32) []byte {
	return []byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)}
}

func newDataset(t testing.TB, strategy core.Strategy, mutate func(*core.Config)) *core.Dataset {
	t.Helper()
	env := metrics.NopEnv()
	disk := storage.NewDisk(storage.ScaledHDD(4096))
	store := storage.NewStore(disk, 1<<30, env)
	cfg := core.Config{
		Store:         store,
		Strategy:      strategy,
		Secondaries:   []core.SecondarySpec{{Name: "user", Extract: recUserID}},
		FilterExtract: recCreation,
		MemoryBudget:  48 << 10,
		UsePKIndex:    true,
		BloomFPR:      0.01,
		Policy:        lsm.NewTiering(0),
		Seed:          3,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// modelRow is the ground truth for one live record.
type modelRow struct {
	user     uint32
	creation int64
}

// applyWorkload drives an identical randomized insert/upsert/delete stream
// into the dataset and a model map.
func applyWorkload(t testing.TB, d *core.Dataset, seed int64, nOps, keySpace int) map[uint64]modelRow {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	model := make(map[uint64]modelRow)
	for i := 0; i < nOps; i++ {
		pk := uint64(rng.Intn(keySpace))
		user := uint32(rng.Intn(50))
		creation := int64(10000 + i)
		switch rng.Intn(10) {
		case 0: // delete
			if _, err := d.Delete(kv.EncodeUint64(pk)); err != nil {
				t.Fatal(err)
			}
			delete(model, pk)
		case 1, 2: // insert (ignored when present)
			ok, err := d.Insert(kv.EncodeUint64(pk), mkRecord(user, creation, 40))
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				model[pk] = modelRow{user: user, creation: creation}
			}
		default: // upsert
			if err := d.Upsert(kv.EncodeUint64(pk), mkRecord(user, creation, 40)); err != nil {
				t.Fatal(err)
			}
			model[pk] = modelRow{user: user, creation: creation}
		}
	}
	return model
}

// modelAnswer computes the expected primary keys for user in [lo, hi].
func modelAnswer(model map[uint64]modelRow, lo, hi uint32) []uint64 {
	var out []uint64
	for pk, row := range model {
		if row.user >= lo && row.user <= hi {
			out = append(out, pk)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func pksOfRecords(records []kv.Entry) []uint64 {
	out := make([]uint64, len(records))
	for i, e := range records {
		out[i] = kv.DecodeUint64(e.Key)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func pksOfKeys(keys [][]byte) []uint64 {
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = kv.DecodeUint64(k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestStrategiesAnswerIdentically is the repo's strongest equivalence
// check: every maintenance strategy, queried with its applicable validation
// method(s), must return exactly the model's answer for random secondary
// range queries — regardless of flush/merge/repair timing.
func TestStrategiesAnswerIdentically(t *testing.T) {
	type variant struct {
		name     string
		strategy core.Strategy
		mutate   func(*core.Config)
		methods  []ValidationMethod
	}
	variants := []variant{
		{"eager", core.Eager, nil, []ValidationMethod{NoValidation}},
		{"validation-norepair", core.Validation, nil, []ValidationMethod{Direct, Timestamp}},
		{"validation-repair", core.Validation,
			func(c *core.Config) { c.MergeRepair = true }, []ValidationMethod{Direct, Timestamp}},
		{"validation-repair-bf", core.Validation,
			func(c *core.Config) {
				c.MergeRepair = true
				c.CorrelatedMerges = true
				c.RepairBloomOpt = true
			}, []ValidationMethod{Direct, Timestamp}},
		{"mutable-bitmap", core.MutableBitmap, nil, []ValidationMethod{Direct, Timestamp}},
		{"deleted-key", core.DeletedKey, nil, []ValidationMethod{Direct, DeletedKeyCheck}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			d := newDataset(t, v.strategy, v.mutate)
			model := applyWorkload(t, d, 99, 6000, 800)
			rng := rand.New(rand.NewSource(5))
			si := d.Secondary("user")
			for trial := 0; trial < 25; trial++ {
				lo := uint32(rng.Intn(45))
				hi := lo + uint32(rng.Intn(5))
				want := modelAnswer(model, lo, hi)
				for _, m := range v.methods {
					res, err := SecondaryRange(d, si, userKey(lo), userKey(hi), SecondaryQueryOptions{
						Validation: m,
						Lookup:     DefaultLookupConfig(),
					})
					if err != nil {
						t.Fatalf("method %v: %v", m, err)
					}
					got := pksOfRecords(res.Records)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("trial %d method %v user[%d,%d]: got %v want %v",
							trial, m, lo, hi, got, want)
					}
					// Every returned record must actually match.
					for _, e := range res.Records {
						u, _ := recUserID(e.Value)
						if len(u) != 4 {
							t.Fatal("bad record")
						}
					}
				}
			}
			// Index-only queries: Timestamp validation for pk-index
			// strategies, deleted-key trees for the deleted-key baseline.
			{
				method := Timestamp
				switch v.strategy {
				case core.Eager:
					method = NoValidation
				case core.DeletedKey:
					method = DeletedKeyCheck
				}
				for trial := 0; trial < 10; trial++ {
					lo := uint32(rng.Intn(45))
					hi := lo + uint32(rng.Intn(5))
					want := modelAnswer(model, lo, hi)
					res, err := SecondaryRange(d, si, userKey(lo), userKey(hi), SecondaryQueryOptions{
						Validation: method,
						IndexOnly:  true,
						Lookup:     DefaultLookupConfig(),
					})
					if err != nil {
						t.Fatal(err)
					}
					got := dedupe(pksOfKeys(res.Keys))
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("index-only trial %d user[%d,%d]: got %v want %v",
							trial, lo, hi, got, want)
					}
				}
			}
		})
	}
}

func dedupe(in []uint64) []uint64 {
	var out []uint64
	for i, v := range in {
		if i == 0 || v != in[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// TestFilterScanMatchesModel verifies range-filter scans return exactly the
// model's records under every strategy, for both recent and old predicates.
func TestFilterScanMatchesModel(t *testing.T) {
	for _, strategy := range []core.Strategy{core.Eager, core.Validation, core.MutableBitmap} {
		t.Run(strategy.String(), func(t *testing.T) {
			d := newDataset(t, strategy, nil)
			model := applyWorkload(t, d, 44, 5000, 700)
			rng := rand.New(rand.NewSource(9))
			for trial := 0; trial < 20; trial++ {
				lo := int64(10000 + rng.Intn(5000))
				hi := lo + int64(rng.Intn(2000))
				var want []uint64
				for pk, row := range model {
					if row.creation >= lo && row.creation <= hi {
						want = append(want, pk)
					}
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				var got []uint64
				err := FilterScan(d, lo, hi, func(e kv.Entry) {
					got = append(got, kv.DecodeUint64(e.Key))
				})
				if err != nil {
					t.Fatal(err)
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("trial %d [%d,%d]: got %d keys want %d keys\n got=%v\nwant=%v",
						trial, lo, hi, len(got), len(want), got, want)
				}
			}
		})
	}
}

// TestFilterScanReadsRuleSources pins FilterScan's source rule with the
// entries it scans. Four disk components hold disjoint creation ranges. A
// predicate on the oldest range reads that component alone under Eager and
// Mutable-bitmap, and that component plus every newer one under Validation
// and Deleted-key (Section 4.2); a predicate on the newest range reads the
// newest component alone under every strategy.
func TestFilterScanReadsRuleSources(t *testing.T) {
	const comps, perComp = 4, 100
	for _, strategy := range []core.Strategy{core.Eager, core.Validation, core.MutableBitmap, core.DeletedKey} {
		t.Run(strategy.String(), func(t *testing.T) {
			d := newDataset(t, strategy, func(c *core.Config) { c.Policy = nil })
			for c := range comps {
				for i := range perComp {
					pk := uint64(c*perComp + i)
					if err := d.Upsert(kv.EncodeUint64(pk), mkRecord(1, int64(c*1000+i), 20)); err != nil {
						t.Fatal(err)
					}
				}
				if err := d.FlushAll(); err != nil {
					t.Fatal(err)
				}
			}
			if n := d.Primary().NumDiskComponents(); n != comps {
				t.Fatalf("setup: %d disk components, want %d", n, comps)
			}
			oldest := perComp
			if strategy == core.Validation || strategy == core.DeletedKey {
				oldest = comps * perComp
			}
			for _, tc := range []struct {
				name    string
				c       int // the component whose range the predicate covers
				scanned int // entries the rule reads
			}{
				{"oldest", 0, oldest},
				{"newest", comps - 1, perComp},
			} {
				counters := d.Config().Store.Env().Counters
				before := counters.EntriesScanned.Load()
				matched := 0
				lo := int64(tc.c * 1000)
				if err := FilterScan(d, lo, lo+perComp-1, func(kv.Entry) { matched++ }); err != nil {
					t.Fatal(err)
				}
				if scanned := int(counters.EntriesScanned.Load() - before); scanned != tc.scanned || matched != perComp {
					t.Fatalf("%s range: scanned %d entries and matched %d, want %d and %d",
						tc.name, scanned, matched, tc.scanned, perComp)
				}
			}
		})
	}
}

// TestLookupConfigsAgree verifies every point-lookup configuration (naive,
// batched, stateful, batch sizes) fetches the same records.
func TestLookupConfigsAgree(t *testing.T) {
	d := newDataset(t, core.Eager, nil)
	model := applyWorkload(t, d, 77, 5000, 900)
	si := d.Secondary("user")

	configs := map[string]LookupConfig{
		"naive":       {},
		"batch":       {BatchMemory: 16 << 20},
		"batch-small": {BatchMemory: 8 << 10},
		"batch-slk":   {BatchMemory: 16 << 20, Stateful: true},
		"naive-slk":   {Stateful: true},
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		lo := uint32(rng.Intn(40))
		hi := lo + uint32(rng.Intn(8))
		want := modelAnswer(model, lo, hi)
		for name, cfg := range configs {
			res, err := SecondaryRange(d, si, userKey(lo), userKey(hi), SecondaryQueryOptions{
				Validation: NoValidation,
				Lookup:     cfg,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := pksOfRecords(res.Records)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("config %s trial %d: got %v want %v", name, trial, got, want)
			}
		}
	}
}

// TestBatchedReducesRandomReads checks the core claim of Section 3.2: with
// a cold cache, batched lookups issue fewer random reads than naive ones.
func TestBatchedReducesRandomReads(t *testing.T) {
	env := metrics.NopEnv()
	disk := storage.NewDisk(storage.ScaledHDD(4096))
	store := storage.NewStore(disk, 1<<20, env) // tiny cache: misses dominate
	cfg := core.Config{
		Store:        store,
		Strategy:     core.Eager,
		Secondaries:  []core.SecondarySpec{{Name: "user", Extract: recUserID}},
		MemoryBudget: 64 << 10,
		UsePKIndex:   true,
		BloomFPR:     0.01,
		Seed:         3,
	}
	d, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		pk := uint64(rng.Int63())
		d.Insert(kv.EncodeUint64(pk), mkRecord(uint32(rng.Intn(100)), int64(i), 80))
	}
	if d.Primary().NumDiskComponents() < 3 {
		t.Skip("need several components for the effect")
	}
	si := d.Secondary("user")

	run := func(cfg LookupConfig) int64 {
		store.Cache().Reset()
		env.Counters.Reset()
		_, err := SecondaryRange(d, si, userKey(0), userKey(60), SecondaryQueryOptions{
			Validation: NoValidation,
			Lookup:     cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return env.Counters.RandomReads.Load()
	}
	naive := run(LookupConfig{})
	batched := run(LookupConfig{BatchMemory: 16 << 20})
	if batched >= naive {
		t.Errorf("batched random reads = %d, naive = %d; batching should reduce them", batched, naive)
	}
	t.Logf("random reads: naive=%d batched=%d", naive, batched)
}
