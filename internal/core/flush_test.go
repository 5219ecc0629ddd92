package core

import (
	"testing"

	"repro/internal/lsm"
)

// TestFlushAllEmptyUniform pins the uniform empty-flush contract: a flush
// with nothing to write is a no-op for every index alike — no error, no
// components, and no flush epoch consumed — and lsm.ErrEmptyFlush never
// escapes FlushAll, whether the empty index is the primary, the primary key
// index, or a secondary.
func TestFlushAllEmptyUniform(t *testing.T) {
	for _, strat := range []Strategy{Eager, Validation, MutableBitmap, DeletedKey} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			d := newTestDataset(t, func(c *Config) { c.Strategy = strat })

			// Entirely empty store: no error, no epoch, no components.
			if err := d.FlushAll(); err != nil {
				t.Fatalf("empty FlushAll: %v", err)
			}
			if got := d.epoch.Load(); got != 0 {
				t.Fatalf("empty flush consumed epoch %d", got)
			}
			for _, nt := range d.trees {
				if n := nt.tree.NumDiskComponents(); n != 0 {
					t.Fatalf("%s: %d components after empty flush", nt.name, n)
				}
			}

			// One record, then two flushes: the second is empty everywhere
			// and must change nothing.
			mustUpsert(t, d, 1, "CA", 2015)
			if err := d.FlushAll(); err != nil {
				t.Fatal(err)
			}
			epoch := d.epoch.Load()
			comps := d.primary.NumDiskComponents()
			if err := d.FlushAll(); err != nil {
				t.Fatalf("second (empty) FlushAll: %v", err)
			}
			if d.epoch.Load() != epoch {
				t.Fatalf("empty flush consumed epoch: %d -> %d", epoch, d.epoch.Load())
			}
			if d.primary.NumDiskComponents() != comps {
				t.Fatal("empty flush changed the component list")
			}
			if _, found, err := getRecord(d, pkOf(1)); err != nil || !found {
				t.Fatalf("record lost across empty flush: found=%v err=%v", found, err)
			}
		})
	}
}

// TestFlushSecondaryOnlySkipsEmpty covers the asymmetric case the old code
// folded into one ErrEmptyFlush check per index: a record without a
// secondary key leaves the secondary's memtable empty while the primary and
// pk indexes flush — the secondary must simply skip, uniformly.
func TestFlushSecondaryOnlySkipsEmpty(t *testing.T) {
	d := newTestDataset(t, func(c *Config) {
		c.Strategy = Validation
		// recLocation returns false for records shorter than 8 bytes, so
		// this secondary never receives a key.
		c.Secondaries = []SecondarySpec{{Name: "location", Extract: recLocation}}
		c.FilterExtract = nil
	})
	if err := d.Upsert(pkOf(9), []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if err := d.FlushAll(); err != nil {
		t.Fatalf("FlushAll with an empty secondary: %v", err)
	}
	if n := d.primary.NumDiskComponents(); n != 1 {
		t.Fatalf("primary components = %d, want 1", n)
	}
	if n := d.Secondary("location").Tree.NumDiskComponents(); n != 0 {
		t.Fatalf("empty secondary got %d components", n)
	}
	// The flushed record is still readable and ErrEmptyFlush never leaked.
	if _, found, err := getRecord(d, pkOf(9)); err != nil || !found {
		t.Fatalf("record lost: found=%v err=%v", found, err)
	}
	if err := d.FlushAll(); err == lsm.ErrEmptyFlush {
		t.Fatal("ErrEmptyFlush escaped FlushAll")
	}
}
