package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/kv"
	"repro/internal/lsm"
	"repro/internal/memtable"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// testRecord is the UserLocation record of the paper's running example
// (Figure 2): (UserID, Location, Time).
func testRecord(location string, year int64) []byte {
	rec := make([]byte, 0, 16+len(location))
	rec = kv.AppendUint64(rec, uint64(year))
	rec = append(rec, location...)
	return rec
}

func recLocation(rec []byte) ([]byte, bool) {
	if len(rec) < 8 {
		return nil, false
	}
	return rec[8:], true
}

func recYear(rec []byte) (int64, bool) {
	if len(rec) < 8 {
		return 0, false
	}
	return int64(kv.DecodeUint64(rec[:8])), true
}

func newTestDataset(t testing.TB, mutate func(*Config)) *Dataset {
	t.Helper()
	env := metrics.NopEnv()
	disk := storage.NewDisk(storage.ScaledHDD(4096))
	store := storage.NewStore(disk, 1<<30, env)
	cfg := Config{
		Store:         store,
		Strategy:      Eager,
		Secondaries:   []SecondarySpec{{Name: "location", Extract: recLocation}},
		FilterExtract: recYear,
		MemoryBudget:  1 << 20,
		UsePKIndex:    true,
		BloomFPR:      0.01,
		Seed:          7,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestOpenRejectsBadConfigs(t *testing.T) {
	env := metrics.NopEnv()
	store := storage.NewStore(storage.NewDisk(storage.ScaledHDD(4096)), 1<<20, env)
	if _, err := Open(Config{Store: store, Strategy: MutableBitmap}); err == nil {
		t.Fatal("mutable-bitmap without pk index must fail")
	}
	if _, err := Open(Config{Store: store, UsePKIndex: true, RepairBloomOpt: true}); err == nil {
		t.Fatal("bf repair optimization without correlated merges must fail")
	}
	if _, err := Open(Config{Store: store, MemoryBudget: memtable.MaxBudget + 1}); err == nil {
		t.Fatal("a budget past what a memtable's references address must fail")
	}
	long := SecondarySpec{Name: strings.Repeat("x", maxTreeName+1), Extract: recLocation}
	if _, err := Open(Config{Store: store, Secondaries: []SecondarySpec{long}}); err == nil {
		t.Fatal("a secondary name longer than the manifest can record must fail")
	}
}

func pkOf(id uint64) []byte { return kv.EncodeUint64(id) }

// getRecord is a primary-index point read with the entry copied out of its
// pinned page.
func getRecord(d *Dataset, pk []byte) (kv.Entry, bool, error) {
	var e kv.Entry
	found, err := d.Primary().Get(pk, func(v kv.Entry) { e = v.Clone() })
	return e, found, err
}

// seedRunningExample loads Figure 2's initial state: records 101 and 102 in
// one flushed component, record 103 in the memory component.
func seedRunningExample(t *testing.T, d *Dataset) {
	t.Helper()
	mustUpsert(t, d, 101, "CA", 2015)
	mustUpsert(t, d, 102, "CA", 2016)
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	mustUpsert(t, d, 103, "MA", 2017)
}

func mustUpsert(t *testing.T, d *Dataset, id uint64, loc string, year int64) {
	t.Helper()
	if err := d.Upsert(pkOf(id), testRecord(loc, year)); err != nil {
		t.Fatal(err)
	}
}

// mustGet reads a key from the primary, failing the test on a device
// error: a dropped read error would let an I/O failure masquerade as a
// clean "not found".
func mustGet(t *testing.T, d *Dataset, id uint64) (kv.Entry, bool) {
	t.Helper()
	e, found, err := getRecord(d, pkOf(id))
	if err != nil {
		t.Fatalf("Get(%d): %v", id, err)
	}
	return e, found
}

func scanSecondaryRaw(t *testing.T, si *SecondaryIndex) []string {
	t.Helper()
	it, err := lsm.NewMergedIterator(lsm.IterOptions{
		Components:    si.Tree.Components(),
		Mem:           si.Tree.Mem(),
		HideAnti:      true,
		SkipInvisible: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for {
		item, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		sk, pk, err := kv.SplitKey(item.Entry.Key)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("(%s,%d)", sk, kv.DecodeUint64(pk)))
	}
}

// TestEagerUpsertExample reproduces Figure 3: upserting (101, NY, 2018)
// under the Eager strategy adds an anti-matter entry (-CA, 101) to the
// secondary index and widens the memory component's range filter to cover
// both 2015 (the old record) and 2018 (the new one).
func TestEagerUpsertExample(t *testing.T) {
	d := newTestDataset(t, nil)
	seedRunningExample(t, d)
	mustUpsert(t, d, 101, "NY", 2018)

	// Q1: Location = CA must return only record 102.
	got := scanSecondaryRaw(t, d.Secondary("location"))
	want := []string{"(CA,102)", "(MA,103)", "(NY,101)"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("secondary contents = %v, want %v", got, want)
	}

	// The memory filter must span [2015, 2018] (old + new).
	min, max, ok := d.Primary().Mem().Filter()
	if !ok || min != 2015 || max != 2018 {
		t.Errorf("memory filter = [%d,%d] ok=%v, want [2015,2018]", min, max, ok)
	}

	// Q2: Time < 2017 must return only (102, CA, 2016): the memory
	// component cannot be pruned because its filter covers 2015.
	e, found, err := getRecord(d, pkOf(101))
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if y, _ := recYear(e.Value); y != 2018 {
		t.Errorf("record 101 year = %d, want 2018", y)
	}
}

// TestValidationUpsertExample reproduces Figure 4: upserting (101, NY, 2018)
// under the Validation strategy performs no point lookup; the obsolete
// (CA, 101) entry remains in the secondary index, and the memory filter is
// maintained with the new record only.
func TestValidationUpsertExample(t *testing.T) {
	d := newTestDataset(t, func(c *Config) { c.Strategy = Validation })
	seedRunningExample(t, d)
	if err := d.FlushAll(); err != nil { // push 103 out so mem-cleanup cannot fire
		t.Fatal(err)
	}
	mustUpsert(t, d, 101, "NY", 2018)

	got := scanSecondaryRaw(t, d.Secondary("location"))
	// The obsolete entry (CA,101) is still visible in the raw index.
	want := []string{"(CA,101)", "(CA,102)", "(MA,103)", "(NY,101)"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("secondary contents = %v, want %v", got, want)
	}

	min, max, ok := d.Primary().Mem().Filter()
	if !ok || min != 2018 || max != 2018 {
		t.Errorf("memory filter = [%d,%d] ok=%v, want [2018,2018]", min, max, ok)
	}
}

// TestMutableBitmapUpsertExample reproduces Figure 9: upserting (101, NY,
// 2018) sets the old record's bit in the disk component's bitmap; the
// memory filter covers only 2018.
func TestMutableBitmapUpsertExample(t *testing.T) {
	d := newTestDataset(t, func(c *Config) {
		c.Strategy = MutableBitmap
		c.CorrelatedMerges = true
	})
	seedRunningExample(t, d)
	mustUpsert(t, d, 101, "NY", 2018)

	comps := d.Primary().Components()
	if len(comps) != 1 {
		t.Fatalf("disk components = %d", len(comps))
	}
	c := comps[0]
	if c.Valid == nil {
		t.Fatal("no mutable bitmap")
	}
	if got := c.Valid.Count(); got != 1 {
		t.Fatalf("bitmap marks %d entries, want 1 (old record 101)", got)
	}
	ord, found, err := c.BTree.Get(pkOf(101), nil)
	if err != nil || !found {
		t.Fatal("old record missing from component")
	}
	if !c.Valid.IsSet(ord) {
		t.Error("old record 101 not marked deleted")
	}
	// The pk-index component shares the same bitmap.
	pkComps := d.PKIndex().Components()
	if len(pkComps) != 1 || pkComps[0].Valid != c.Valid {
		t.Error("primary and pk-index components must share one bitmap")
	}
	// Figure 9: the memory filter covers [2017, 2018] — 2017 from record
	// 103 (still in memory) and 2018 from the new record; crucially NOT
	// 2015, since the old record is deleted via the bitmap instead.
	min, max, ok := d.Primary().Mem().Filter()
	if !ok || min != 2017 || max != 2018 {
		t.Errorf("memory filter = [%d,%d] ok=%v, want [2017,2018]", min, max, ok)
	}
	// Get still resolves to the new version.
	e, found := mustGet(t, d, 101)
	if !found {
		t.Fatal("record 101 lost")
	}
	if loc, _ := recLocation(e.Value); string(loc) != "NY" {
		t.Errorf("record 101 location = %s", loc)
	}
}

func TestInsertUniqueness(t *testing.T) {
	for _, strat := range []Strategy{Eager, Validation, MutableBitmap, DeletedKey} {
		t.Run(strat.String(), func(t *testing.T) {
			d := newTestDataset(t, func(c *Config) {
				c.Strategy = strat
				if strat == MutableBitmap {
					c.CorrelatedMerges = true
				}
			})
			ok, err := d.Insert(pkOf(1), testRecord("CA", 2015))
			if err != nil || !ok {
				t.Fatal(err, ok)
			}
			ok, err = d.Insert(pkOf(1), testRecord("NY", 2016))
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Error("duplicate insert must be ignored")
			}
			if d.IgnoredCount() != 1 {
				t.Errorf("ignored = %d", d.IgnoredCount())
			}
			// duplicate across a flush boundary too
			if err := d.FlushAll(); err != nil {
				t.Fatal(err)
			}
			ok, err = d.Insert(pkOf(1), testRecord("UT", 2017))
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Error("duplicate insert after flush must be ignored")
			}
		})
	}
}

// TestMutableBitmapDeleteSkipsBitDeletedVersion: the Mutable-bitmap delete
// search treats a newest disk version whose validity bit is already set
// as absent, so deleting that key is ignored and sets no bit.
func TestMutableBitmapDeleteSkipsBitDeletedVersion(t *testing.T) {
	d := newTestDataset(t, func(c *Config) { c.Strategy = MutableBitmap })
	mustUpsert(t, d, 10, "CA", 2015)
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	c := d.PKIndex().Components()[0]
	ord, found, err := c.BTree.Get(pkOf(10), nil)
	if err != nil || !found {
		t.Fatal(err, found)
	}
	c.Valid.Set(ord)
	if ok, err := d.Delete(pkOf(10)); err != nil || ok {
		t.Fatalf("delete of a bit-deleted version: ok=%v err=%v, want it ignored", ok, err)
	}
	if n := c.Valid.Count(); n != 1 {
		t.Fatalf("%d bits set, want the one set by hand", n)
	}
}

func TestDeleteSemantics(t *testing.T) {
	for _, strat := range []Strategy{Eager, Validation, MutableBitmap, DeletedKey} {
		t.Run(strat.String(), func(t *testing.T) {
			d := newTestDataset(t, func(c *Config) {
				c.Strategy = strat
				if strat == MutableBitmap {
					c.CorrelatedMerges = true
				}
			})
			mustUpsert(t, d, 10, "CA", 2015)
			if err := d.FlushAll(); err != nil {
				t.Fatal(err)
			}
			ok, err := d.Delete(pkOf(10))
			if err != nil || !ok {
				t.Fatal(err, ok)
			}
			if _, found := mustGet(t, d, 10); found {
				t.Error("deleted record still visible")
			}
			// Deleting a missing key reports false under strategies that
			// perform existence checks (Eager, MutableBitmap).
			if strat == Eager || strat == MutableBitmap {
				ok, err := d.Delete(pkOf(999))
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					t.Error("delete of missing key must be ignored")
				}
			}
			// Re-insert works after delete.
			ok, err = d.Insert(pkOf(10), testRecord("UT", 2019))
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Error("re-insert after delete failed")
			}
		})
	}
}

func TestFlushSharedBudget(t *testing.T) {
	d := newTestDataset(t, func(c *Config) { c.MemoryBudget = 64 << 10 })
	for i := 0; i < 2000; i++ {
		mustUpsert(t, d, uint64(i), "CA", int64(2000+i%20))
	}
	if d.Primary().NumDiskComponents() == 0 {
		t.Fatal("budget never triggered a flush")
	}
	// All indexes flush together: same number of components.
	np := d.Primary().NumDiskComponents()
	nk := d.PKIndex().NumDiskComponents()
	ns := d.Secondary("location").Tree.NumDiskComponents()
	if np != nk || np != ns {
		t.Errorf("component counts diverge: primary=%d pk=%d sec=%d", np, nk, ns)
	}
}

func TestMergePolicyRuns(t *testing.T) {
	d := newTestDataset(t, func(c *Config) {
		c.MemoryBudget = 32 << 10
		c.Policy = lsm.NewTiering(0)
	})
	for i := 0; i < 4000; i++ {
		mustUpsert(t, d, uint64(i%1000), "CA", int64(2000+i%20))
	}
	// Tiering with ratio 1.2 and no cap keeps the component count low.
	if n := d.Primary().NumDiskComponents(); n > 4 {
		t.Errorf("merge policy left %d components", n)
	}
	// Everything still readable.
	for i := 0; i < 1000; i++ {
		if _, found := mustGet(t, d, uint64(i)); !found {
			t.Fatalf("key %d lost after merges", i)
		}
	}
}

func TestCorrelatedMergesAlignComponents(t *testing.T) {
	d := newTestDataset(t, func(c *Config) {
		c.MemoryBudget = 32 << 10
		c.Policy = lsm.NewTiering(0)
		c.CorrelatedMerges = true
	})
	// Vary the secondary key so every flush has secondary entries (Eager
	// skips secondary maintenance when the key is unchanged).
	for i := 0; i < 4000; i++ {
		mustUpsert(t, d, uint64(i%1000), fmt.Sprintf("L%02d", i%17), int64(2000+i%20))
	}
	p := d.Primary().Components()
	k := d.PKIndex().Components()
	s := d.Secondary("location").Tree.Components()
	if len(p) != len(k) || len(p) != len(s) {
		t.Fatalf("correlated merges must align: %d/%d/%d", len(p), len(k), len(s))
	}
	for i := range p {
		if p[i].EpochMin != k[i].EpochMin || p[i].EpochMax != k[i].EpochMax {
			t.Errorf("component %d epochs diverge: %v vs %v", i,
				[2]uint64{p[i].EpochMin, p[i].EpochMax}, [2]uint64{k[i].EpochMin, k[i].EpochMax})
		}
		if p[i].EpochMin != s[i].EpochMin || p[i].EpochMax != s[i].EpochMax {
			t.Errorf("secondary component %d epochs diverge", i)
		}
	}
}

func TestMutableBitmapSurvivesMerge(t *testing.T) {
	d := newTestDataset(t, func(c *Config) {
		c.Strategy = MutableBitmap
		c.MemoryBudget = 32 << 10
		c.Policy = lsm.NewTiering(0)
		c.CorrelatedMerges = true
	})
	for i := 0; i < 3000; i++ {
		mustUpsert(t, d, uint64(i%500), "CA", int64(2000+i%20))
	}
	// After all updates, exactly the newest version of each key is
	// reachable and bitmap-deleted old versions were physically removed
	// or remain marked.
	seen := map[uint64]bool{}
	for i := uint64(0); i < 500; i++ {
		e, found, err := getRecord(d, pkOf(i))
		if err != nil || !found {
			t.Fatalf("key %d: found=%v err=%v", i, found, err)
		}
		if seen[i] {
			t.Fatalf("key %d seen twice", i)
		}
		seen[i] = true
		if len(e.Value) == 0 {
			t.Fatalf("key %d empty record", i)
		}
	}
	// pk-index and primary components must pairwise share bitmaps.
	p, k := d.Primary().Components(), d.PKIndex().Components()
	if len(p) != len(k) {
		t.Fatalf("component counts: %d vs %d", len(p), len(k))
	}
	for i := range p {
		if p[i].Valid != k[i].Valid {
			t.Errorf("component %d: bitmaps not shared", i)
		}
		if p[i].NumEntries() != k[i].NumEntries() {
			t.Errorf("component %d: entry counts diverge", i)
		}
	}
}

func TestDeletedKeyStrategyAttachesTrees(t *testing.T) {
	d := newTestDataset(t, func(c *Config) { c.Strategy = DeletedKey })
	// Inserts check uniqueness and record no deleted keys.
	for i := 0; i < 100; i++ {
		if ok, err := d.Insert(pkOf(uint64(i)), testRecord("CA", 2015)); err != nil || !ok {
			t.Fatal(err, ok)
		}
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Upserts of existing keys record deleted keys.
	for i := 0; i < 50; i++ {
		mustUpsert(t, d, uint64(i), "NY", 2016)
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	comps := d.Secondary("location").Tree.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d", len(comps))
	}
	if comps[1].DeletedKeys == nil {
		t.Fatal("newest component missing deleted-key B+-tree")
	}
	if comps[1].DeletedKeys.NumEntries() != 50 {
		t.Errorf("deleted keys = %d, want 50", comps[1].DeletedKeys.NumEntries())
	}
	if comps[0].DeletedKeys != nil {
		t.Error("first component should have no deleted keys (inserts only)")
	}
}

func TestWALRecordsAppendsAndCommits(t *testing.T) {
	d := newTestDataset(t, nil)
	mustUpsert(t, d, 1, "CA", 2015)
	if _, err := d.Delete(pkOf(1)); err != nil {
		t.Fatal(err)
	}
	if d.Log() == nil {
		t.Fatal("WAL disabled by default config?")
	}
	if n := d.Log().Len(); n != 2 { // one record per write
		t.Errorf("log records = %d, want 2", n)
	}
	d2 := newTestDataset(t, func(c *Config) { c.DisableWAL = true })
	mustUpsert(t, d2, 1, "CA", 2015)
	if d2.Log() != nil {
		t.Error("WAL should be disabled")
	}
}

func TestEagerSkipsUnchangedSecondaryKey(t *testing.T) {
	d := newTestDataset(t, nil)
	mustUpsert(t, d, 1, "CA", 2015)
	mustUpsert(t, d, 1, "CA", 2016) // same location: secondary untouched
	got := scanSecondaryRaw(t, d.Secondary("location"))
	if len(got) != 1 || got[0] != "(CA,1)" {
		t.Errorf("secondary contents = %v", got)
	}
	// primary still updated
	e, _ := mustGet(t, d, 1)
	if y, _ := recYear(e.Value); y != 2016 {
		t.Errorf("year = %d", y)
	}
}

var _ = bytes.Equal // keep bytes import if assertions above change
