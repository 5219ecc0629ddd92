package query

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/maint"
)

// TestFilterScanSupersededFrozenVersion is the regression test for the
// Mutable-bitmap scan path under asynchronous flushes: a record whose
// version sits in a frozen (not yet built) memtable and is then superseded
// by an upsert — or removed by a delete — must not leak the stale frozen
// version out of FilterScan, even though memtables carry no validity
// bitmaps. The pool's only worker is wedged so the frozen window stays open
// deterministically.
func TestFilterScanSupersededFrozenVersion(t *testing.T) {
	pool := maint.NewPool(1)
	defer pool.Close()
	release := make(chan struct{})
	pool.Submit(func() { <-release }) // wedge the worker: freezes queue, builds wait

	d := newDataset(t, core.MutableBitmap, func(c *core.Config) {
		c.Maintenance = pool
		c.MemoryBudget = 4 << 10
		c.MaxFrozenMemtables = 1 << 20 // no backpressure: the test wants lag
	})

	// First version of the probe key plus enough filler to cross the
	// budget, so the write path freezes the memtable with v1 inside.
	probe := kv.EncodeUint64(7)
	if err := d.Upsert(probe, mkRecord(1, 100, 64)); err != nil {
		t.Fatal(err)
	}
	for i := uint64(100); i < 160; i++ {
		if err := d.Upsert(kv.EncodeUint64(i), mkRecord(2, 100, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Primary().NumFrozen(); got == 0 {
		t.Fatal("setup: no frozen memtable; raise the filler count")
	}

	// Supersede v1 while it is frozen; also delete one filler key whose
	// version is frozen.
	if err := d.Upsert(probe, mkRecord(3, 200, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete(kv.EncodeUint64(100)); err != nil {
		t.Fatal(err)
	}

	countVersions := func() (probeSeen int, deletedSeen int, userOfProbe uint32) {
		probeSeen, deletedSeen = 0, 0
		if err := FilterScan(d, 0, 1<<60, func(e kv.Entry) {
			if string(e.Key) == string(probe) {
				probeSeen++
				u, _ := recUserID(e.Value)
				userOfProbe = uint32(u[0])<<24 | uint32(u[1])<<16 | uint32(u[2])<<8 | uint32(u[3])
			}
			if string(e.Key) == string(kv.EncodeUint64(100)) {
				deletedSeen++
			}
		}); err != nil {
			t.Fatal(err)
		}
		return
	}

	// With the frozen window still open: exactly one (new) version of the
	// probe key, and the deleted key absent.
	probeSeen, deletedSeen, user := countVersions()
	if probeSeen != 1 || user != 3 {
		t.Fatalf("frozen window: probe key seen %d times, user %d (want once, user 3)", probeSeen, user)
	}
	if deletedSeen != 0 {
		t.Fatalf("frozen window: deleted key still visible (%d)", deletedSeen)
	}

	// After the batches build and merges drain, the answer is unchanged.
	close(release)
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	probeSeen, deletedSeen, user = countVersions()
	if probeSeen != 1 || user != 3 {
		t.Fatalf("after drain: probe key seen %d times, user %d (want once, user 3)", probeSeen, user)
	}
	if deletedSeen != 0 {
		t.Fatalf("after drain: deleted key visible (%d)", deletedSeen)
	}

	// Sanity: the probe key reads as v2 through the point-lookup path too.
	var c int64
	found, err := d.Primary().Get(probe, func(e kv.Entry) { c, _ = recCreation(e.Value) })
	if err != nil || !found {
		t.Fatalf("probe key lost: found=%v err=%v", found, err)
	}
	if c != 200 {
		t.Fatalf("probe key resolves to creation %d, want 200", c)
	}
}
