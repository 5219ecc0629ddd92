package repair_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/lsm"
	"repro/internal/metrics"
	"repro/internal/repair"
	"repro/internal/storage"
)

func mkRecord(userID uint32, pad int) []byte {
	rec := make([]byte, 0, 12+pad)
	rec = kv.AppendUint64(rec, 0)
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

func newDataset(t testing.TB, mutate func(*core.Config)) *core.Dataset {
	t.Helper()
	env := metrics.NopEnv()
	disk := storage.NewDisk(storage.ScaledHDD(4096))
	store := storage.NewStore(disk, 1<<30, env)
	cfg := core.Config{
		Store:        store,
		Strategy:     core.Validation,
		Secondaries:  []core.SecondarySpec{{Name: "user", Extract: recUserID}},
		MemoryBudget: 32 << 10,
		UsePKIndex:   true,
		BloomFPR:     0.01,
		Seed:         17,
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

// obsoleteCount counts secondary entries that point at stale versions,
// ground-truthed against the model.
func visibleSecondaryEntries(t *testing.T, si *core.SecondaryIndex) []string {
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
		sk, pk, _ := kv.SplitKey(item.Entry.Key)
		out = append(out, fmt.Sprintf("%x/%d", sk, kv.DecodeUint64(pk)))
	}
}

func expectedEntries(model map[uint64]uint32) []string {
	var out []string
	for pk, u := range model {
		out = append(out, fmt.Sprintf("%x/%d", []byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)}, pk))
	}
	sort.Strings(out)
	return out
}

func driveUpdates(t *testing.T, d *core.Dataset, seed int64, nOps, keySpace int) map[uint64]uint32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	model := make(map[uint64]uint32)
	for i := 0; i < nOps; i++ {
		pk := uint64(rng.Intn(keySpace))
		u := uint32(rng.Intn(64))
		if rng.Intn(8) == 0 {
			d.Delete(kv.EncodeUint64(pk))
			delete(model, pk)
			continue
		}
		if err := d.Upsert(kv.EncodeUint64(pk), mkRecord(u, 30)); err != nil {
			t.Fatal(err)
		}
		model[pk] = u
	}
	return model
}

// TestStandaloneRepairCleansObsolete: after repairing every component, the
// visible secondary entries equal exactly the model's live rows.
func TestStandaloneRepairCleansObsolete(t *testing.T) {
	for _, useBloom := range []bool{false, true} {
		t.Run(fmt.Sprintf("bloom=%v", useBloom), func(t *testing.T) {
			d := newDataset(t, nil)
			model := driveUpdates(t, d, 31, 4000, 500)
			si := d.Secondary("user")

			before := visibleSecondaryEntries(t, si)
			if len(before) <= len(model) {
				t.Fatalf("setup: expected obsolete entries, visible=%d model=%d", len(before), len(model))
			}
			if err := repair.RepairAll(si.Tree, d.PKIndex(), repair.Options{UseBloom: useBloom}); err != nil {
				t.Fatal(err)
			}
			after := visibleSecondaryEntries(t, si)
			sort.Strings(after)
			want := expectedEntries(model)
			if fmt.Sprint(after) != fmt.Sprint(want) {
				t.Fatalf("after repair: %d entries, want %d", len(after), len(want))
			}
		})
	}
}

// TestRepairedTSAdvancesAndPrunes: a second repair right after the first
// must prune every pk-index component and do almost no validation work.
func TestRepairedTSAdvances(t *testing.T) {
	d := newDataset(t, nil)
	driveUpdates(t, d, 32, 3000, 400)
	si := d.Secondary("user")
	if err := repair.RepairAll(si.Tree, d.PKIndex(), repair.Options{}); err != nil {
		t.Fatal(err)
	}
	maxPK := int64(0)
	for _, c := range d.PKIndex().Components() {
		if c.ID.MaxTS > maxPK {
			maxPK = c.ID.MaxTS
		}
	}
	for i, c := range si.Tree.Components() {
		if c.RepairedTS < maxPK {
			t.Errorf("component %d repairedTS=%d < pk max %d", i, c.RepairedTS, maxPK)
		}
	}
	// Second repair: all disk components pruned -> few point lookups.
	env := d.Env()
	env.Counters.Reset()
	if err := repair.RepairAll(si.Tree, d.PKIndex(), repair.Options{}); err != nil {
		t.Fatal(err)
	}
	if lookups := env.Counters.PointLookups.Load(); lookups > int64(d.PKIndex().Mem().Len())*4 {
		t.Errorf("second repair did %d lookups; pruning should leave only memory checks", lookups)
	}
}

// TestMergeRepairEquivalentToStandalone: merge repair and standalone repair
// must converge to the same visible entries.
func TestMergeRepairCleansObsolete(t *testing.T) {
	d := newDataset(t, nil)
	model := driveUpdates(t, d, 33, 4000, 500)
	si := d.Secondary("user")
	n := si.Tree.NumDiskComponents()
	if n < 2 {
		t.Skip("need >=2 components")
	}
	if _, err := repair.MergeRepair(si.Tree, d.PKIndex(), 0, n, repair.Options{}); err != nil {
		t.Fatal(err)
	}
	if si.Tree.NumDiskComponents() != 1 {
		t.Fatalf("components after merge repair = %d", si.Tree.NumDiskComponents())
	}
	after := visibleSecondaryEntries(t, si)
	sort.Strings(after)
	want := expectedEntries(model)
	if fmt.Sprint(after) != fmt.Sprint(want) {
		t.Fatalf("after merge repair: %d entries, want %d", len(after), len(want))
	}
	// The new component's bitmap marks obsolete entries; a further merge
	// physically removes them.
	comp := si.Tree.Components()[0]
	if comp.Obsolete == nil {
		t.Fatal("merge repair must attach a bitmap")
	}
}

// TestPrimaryRepairCleansObsolete: the DELI baseline produces anti-matter
// that hides obsolete entries.
func TestPrimaryRepairCleansObsolete(t *testing.T) {
	for _, withMerge := range []bool{false, true} {
		t.Run(fmt.Sprintf("merge=%v", withMerge), func(t *testing.T) {
			d := newDataset(t, nil)
			model := driveUpdates(t, d, 34, 4000, 500)
			// Primary repair scans disk components only (DELI repairs
			// during merges); flush so every version is on disk, as in
			// the paper's stop-ingestion-then-repair protocol.
			if err := d.FlushAll(); err != nil {
				t.Fatal(err)
			}
			si := d.Secondary("user")
			targets := []repair.SecondaryTarget{{
				Tree:    si.Tree,
				Extract: recUserID,
				PutAnti: func(sk, pk []byte, ts int64) {
					si.Tree.Put(kv.Entry{Key: kv.ComposeKey(sk, pk), TS: ts, Anti: true})
				},
			}}
			if err := repair.PrimaryRepair(d.Primary(), targets, withMerge, d.NextTS()); err != nil {
				t.Fatal(err)
			}
			after := visibleSecondaryEntries(t, si)
			sort.Strings(after)
			want := expectedEntries(model)
			if fmt.Sprint(after) != fmt.Sprint(want) {
				t.Fatalf("after primary repair: %d entries, want %d\nafter=%v\nwant=%v",
					len(after), len(want), after, want)
			}
			if withMerge && d.Primary().NumDiskComponents() != 1 {
				t.Errorf("primary components = %d, want 1 after merge", d.Primary().NumDiskComponents())
			}
		})
	}
}

// TestSecondaryRepairCheaperThanPrimary reproduces the paper's core claim
// (Figure 20): secondary repair reads only the primary key index, so its
// I/O is far below primary repair, which reads full records.
func TestSecondaryRepairCheaperThanPrimary(t *testing.T) {
	setup := func() (*core.Dataset, *metrics.Env) {
		env := metrics.NopEnv()
		disk := storage.NewDisk(storage.ScaledHDD(4096))
		store := storage.NewStore(disk, 1<<20, env) // small cache
		d, err := core.Open(core.Config{
			Store:        store,
			Strategy:     core.Validation,
			Secondaries:  []core.SecondarySpec{{Name: "user", Extract: recUserID}},
			MemoryBudget: 64 << 10,
			UsePKIndex:   true,
			BloomFPR:     0.01,
			Seed:         17,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(55))
		for i := 0; i < 8000; i++ {
			pk := uint64(rng.Intn(2000))
			d.Upsert(kv.EncodeUint64(pk), mkRecord(uint32(rng.Intn(64)), 200))
		}
		return d, env
	}

	d1, env1 := setup()
	env1.Counters.Reset()
	if err := repair.RepairAll(d1.Secondary("user").Tree, d1.PKIndex(), repair.Options{}); err != nil {
		t.Fatal(err)
	}
	secReads := env1.Counters.RandomReads.Load() + env1.Counters.SequentialReads.Load()

	d2, env2 := setup()
	env2.Counters.Reset()
	si := d2.Secondary("user")
	targets := []repair.SecondaryTarget{{
		Tree:    si.Tree,
		Extract: recUserID,
		PutAnti: func(sk, pk []byte, ts int64) {
			si.Tree.Put(kv.Entry{Key: kv.ComposeKey(sk, pk), TS: ts, Anti: true})
		},
	}}
	if err := repair.PrimaryRepair(d2.Primary(), targets, false, d2.NextTS()); err != nil {
		t.Fatal(err)
	}
	primReads := env2.Counters.RandomReads.Load() + env2.Counters.SequentialReads.Load()

	if secReads >= primReads {
		t.Errorf("secondary repair reads=%d, primary repair reads=%d; secondary should be cheaper",
			secReads, primReads)
	}
	t.Logf("page reads: secondary repair=%d, primary repair=%d", secReads, primReads)
}

// TestRepairProbesEachDistinctKeyOnce: repair's point lookups probe each
// distinct primary key of the sorted tuples once, and count as every other
// probe does: one point lookup per key for its memory probe, and one per
// disk probe. The secondary component repaired is two flushes merged, so it
// holds two live entries per key for keys 0..99, and a repairedTS that
// prunes the first primary-key-index component but not the second, which
// holds every key. The memory component holds more recent keys than there
// are tuples, so validation takes the point-lookup path: 100 memory probes
// and 100 disk probes, where probing every tuple would count 400.
func TestRepairProbesEachDistinctKeyOnce(t *testing.T) {
	d := newDataset(t, func(c *core.Config) {
		c.MemoryBudget = 1 << 30 // manual flushes
	})
	for user := range 2 {
		for pk := uint64(0); pk < 100; pk++ {
			if err := d.Upsert(kv.EncodeUint64(pk), mkRecord(uint32(user), 30)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	si := d.Secondary("user")
	res, err := si.Tree.Merge(lsm.MergeSpec{Lo: 0, Hi: 2, DropAnti: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := si.Tree.Install(res); err != nil {
		t.Fatal(err)
	}
	comp := si.Tree.Components()[0]
	pkComps := d.PKIndex().Components()
	if si.Tree.NumDiskComponents() != 1 || comp.NumEntries() != 200 || len(pkComps) != 2 ||
		pkComps[0].ID.MaxTS > comp.RepairedTS || pkComps[1].ID.MaxTS <= comp.RepairedTS {
		t.Fatalf("setup: %d secondary components (%d entries, repairedTS %d), %d pk-index components",
			si.Tree.NumDiskComponents(), comp.NumEntries(), comp.RepairedTS, len(pkComps))
	}
	for pk := uint64(1000); pk < 1300; pk++ {
		if err := d.Upsert(kv.EncodeUint64(pk), mkRecord(7, 30)); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Env().Counters.PointLookups.Load()
	if err := repair.StandaloneRepair(si.Tree, d.PKIndex(), comp, repair.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := d.Env().Counters.PointLookups.Load() - before; got != 200 {
		t.Fatalf("repair counted %d point lookups for 100 distinct keys, want 100 memory and 100 disk probes", got)
	}
	if marked := si.Tree.Components()[0].Obsolete.Count(); marked != 100 {
		t.Fatalf("%d entries marked obsolete, want the 100 stale ones", marked)
	}
}

// TestMergeRepairAllocations: a merge repair of 12 000 secondary entries
// copies each entry's primary key into the validator's arena, a chunk at a
// time, and sizes its tuple list once from the inputs' entry counts, so
// what the whole repair allocates — the merge's pages and scratch included —
// stays far below one allocation per entry. Copying each key on its own
// allocated 12 000 times more.
func TestMergeRepairAllocations(t *testing.T) {
	const perFlush, flushes = 6000, 2
	d := newDataset(t, func(c *core.Config) {
		c.MemoryBudget = 1 << 30 // manual flushes
	})
	for f := range flushes {
		for i := range perFlush {
			pk := uint64(f*perFlush + i)
			if err := d.Upsert(kv.EncodeUint64(pk), mkRecord(uint32(pk%64), 30)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	si := d.Secondary("user")
	var entries int64
	for _, c := range si.Tree.Components() {
		entries += c.NumEntries()
	}
	if si.Tree.NumDiskComponents() != flushes || entries != flushes*perFlush {
		t.Fatalf("setup: %d secondary components of %d entries", si.Tree.NumDiskComponents(), entries)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := repair.MergeRepair(si.Tree, d.PKIndex(), 0, flushes, repair.Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("merge repair of %d entries: %d allocations", entries, allocs)
	if limit := uint64(entries / 20); allocs > limit {
		t.Errorf("merge repair of %d entries: %d allocations, want at most %d (one per 20 entries)", entries, allocs, limit)
	}
}
