package core

import (
	"testing"

	"repro/internal/kv"
	"repro/internal/lsm"
)

// TestDeletedKeyMergeDropsObsoleteEntries exercises the deleted-key
// strategy's merge cleanup directly: entries whose primary key appears in a
// strictly newer component's deleted-key B+-tree are dropped, and the new
// component receives the union of the inputs' deleted-key trees.
func TestDeletedKeyMergeDropsObsoleteEntries(t *testing.T) {
	d := newTestDataset(t, func(c *Config) {
		c.Strategy = DeletedKey
		c.Policy = nil // merge manually
	})
	// Component 1: 100 inserts with location L0.
	for i := 0; i < 100; i++ {
		if ok, err := d.Insert(pkOf(uint64(i)), testRecord("L0", 2015)); err != nil || !ok {
			t.Fatal(err, ok)
		}
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Component 2: keys 0..49 move to L1 (their old entries become
	// obsolete and keys 0..49 land in comp 2's deleted-key tree).
	for i := 0; i < 50; i++ {
		mustUpsert(t, d, uint64(i), "L1", 2016)
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	si := d.Secondary("location")
	comps := si.Tree.Components()
	if len(comps) != 2 || comps[1].DeletedKeys == nil {
		t.Fatalf("setup: comps=%d", len(comps))
	}
	total := comps[0].NumEntries() + comps[1].NumEntries()
	if total != 150 {
		t.Fatalf("setup: %d entries", total)
	}

	if err := d.mergeDeletedKeyRange(si, 0, 2); err != nil {
		t.Fatal(err)
	}
	merged := si.Tree.Components()
	if len(merged) != 1 {
		t.Fatalf("components after merge = %d", len(merged))
	}
	// 100 live entries survive: 50 x (L0) for keys 50..99, 50 x (L1).
	if got := merged[0].NumEntries(); got != 100 {
		t.Fatalf("merged entries = %d, want 100", got)
	}
	// The union deleted-key tree persists for validation against older
	// (unmerged) components.
	if merged[0].DeletedKeys == nil || merged[0].DeletedKeys.NumEntries() != 50 {
		t.Fatalf("merged deleted keys = %v", merged[0].DeletedKeys)
	}
	// Answers unchanged.
	got := scanSecondaryRaw(t, si)
	if len(got) != 100 {
		t.Fatalf("visible entries = %d", len(got))
	}
	checkDeletedKeys(t, merged[0], 0, 50)

	// Keys 40..59 are deleted again in a newer component: 40..49 are in
	// both inputs of the next merge and must keep the newer timestamp.
	before := d.CurrentTS()
	for i := 40; i < 60; i++ {
		mustUpsert(t, d, uint64(i), "L2", 2017)
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.mergeDeletedKeyRange(si, 0, 2); err != nil {
		t.Fatal(err)
	}
	merged = si.Tree.Components()
	if len(merged) != 1 {
		t.Fatalf("components after second merge = %d", len(merged))
	}
	ts := checkDeletedKeys(t, merged[0], 0, 60)
	for pk, del := range ts {
		if pk >= 40 && del <= before {
			t.Errorf("key %d kept its older deletion ts %d", pk, del)
		}
		if pk < 40 && del > before {
			t.Errorf("key %d: deletion ts %d, but it was deleted at or before %d", pk, del, before)
		}
	}
}

// checkDeletedKeys checks that c's deleted-key tree holds exactly the keys
// [lo, hi) and that its Bloom filter answers true for each, and returns each
// key's deletion timestamp.
func checkDeletedKeys(t *testing.T, c *lsm.Component, lo, hi uint64) map[uint64]int64 {
	t.Helper()
	if c.DeletedKeys == nil || c.DeletedKeysBloom == nil {
		t.Fatal("component has no deleted-key tree or filter")
	}
	scan, err := c.DeletedKeys.NewScan(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := make(map[uint64]int64)
	for {
		e, _, ok, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		ts[kv.DecodeUint64(e.Key)] = e.TS
	}
	if len(ts) != int(hi-lo) {
		t.Fatalf("deleted-key tree holds %d keys, want %d", len(ts), hi-lo)
	}
	for pk := lo; pk < hi; pk++ {
		if _, ok := ts[pk]; !ok {
			t.Fatalf("deleted-key tree lacks key %d", pk)
		}
		if ok, _ := c.DeletedKeysBloom.MayContain(pkOf(pk)); !ok {
			t.Errorf("deleted-key filter rejects key %d", pk)
		}
	}
	return ts
}

// TestMergeEpochRangeSkipsSingletons: a correlated merge over an epoch
// range covering fewer than two components of some index leaves that index
// untouched instead of erroring.
func TestMergeEpochRangeSkipsSingletons(t *testing.T) {
	d := newTestDataset(t, func(c *Config) {
		c.Policy = nil
		c.CorrelatedMerges = true
	})
	// Epoch 1: all indexes flush. Epoch 2: only key churn on the primary
	// (same location, so Eager skips the secondary index).
	mustUpsert(t, d, 1, "CA", 2015)
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	mustUpsert(t, d, 1, "CA", 2016)
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	np := d.Primary().NumDiskComponents()
	ns := d.Secondary("location").Tree.NumDiskComponents()
	if np != 2 || ns != 1 {
		t.Fatalf("setup: primary=%d secondary=%d", np, ns)
	}
	if err := d.mergeEpochRange(1, 2); err != nil {
		t.Fatal(err)
	}
	if d.Primary().NumDiskComponents() != 1 {
		t.Fatal("primary not merged")
	}
	if d.Secondary("location").Tree.NumDiskComponents() != 1 {
		t.Fatal("secondary singleton was disturbed")
	}
	// Data still readable, newest version wins.
	e, found := mustGet(t, d, 1)
	if !found {
		t.Fatal("key 1 lost")
	}
	if y, _ := recYear(e.Value); y != 2016 {
		t.Fatalf("year = %d", y)
	}
}
