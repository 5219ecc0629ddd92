package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/lsm"
	"repro/internal/maint"
)

// driveMixed applies a random op stream and returns the expected live rows.
func driveMixed(t *testing.T, d *Dataset, seed int64, nOps int, flushEvery int) map[uint64]string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	model := make(map[uint64]string)
	for i := 0; i < nOps; i++ {
		pk := uint64(rng.Intn(300))
		loc := fmt.Sprintf("L%02d", rng.Intn(20))
		switch rng.Intn(6) {
		case 0:
			if _, err := d.Delete(pkOf(pk)); err != nil {
				t.Fatal(err)
			}
			delete(model, pk)
		default:
			mustUpsert(t, d, pk, loc, int64(2000+i))
			model[pk] = loc
		}
		if flushEvery > 0 && i > 0 && i%flushEvery == 0 {
			if err := d.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return model
}

func verifyModel(t *testing.T, d *Dataset, model map[uint64]string) {
	t.Helper()
	for pk := uint64(0); pk < 300; pk++ {
		e, found, err := getRecord(d, pkOf(pk))
		if err != nil {
			t.Fatal(err)
		}
		want, ok := model[pk]
		if found != ok {
			t.Fatalf("key %d: found=%v want %v", pk, found, ok)
		}
		if found {
			loc, _ := recLocation(e.Value)
			if string(loc) != want {
				t.Fatalf("key %d: location %s want %s", pk, loc, want)
			}
		}
	}
}

func TestCrashRecoveryAllStrategies(t *testing.T) {
	for _, strat := range []Strategy{Eager, Validation, MutableBitmap, DeletedKey} {
		t.Run(strat.String(), func(t *testing.T) {
			d := newTestDataset(t, func(c *Config) {
				c.Strategy = strat
			})
			model := driveMixed(t, d, 61, 2000, 400)
			d.Crash()
			// Memory state is gone: recent writes are invisible now.
			if err := d.Recover(); err != nil {
				t.Fatal(err)
			}
			verifyModel(t, d, model)
		})
	}
}

func TestCrashLosesUnrecoveredState(t *testing.T) {
	d := newTestDataset(t, nil)
	mustUpsert(t, d, 1, "CA", 2015)
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	mustUpsert(t, d, 2, "NY", 2016) // memory only
	d.Crash()
	if _, found := mustGet(t, d, 2); found {
		t.Fatal("memory-only record survived the crash without recovery")
	}
	if _, found := mustGet(t, d, 1); !found {
		t.Fatal("flushed record lost")
	}
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, found := mustGet(t, d, 2); !found {
		t.Fatal("record not recovered from the log")
	}
}

func TestRecoverRequiresWAL(t *testing.T) {
	d := newTestDataset(t, func(c *Config) { c.DisableWAL = true })
	mustUpsert(t, d, 1, "CA", 2015)
	d.Crash()
	if err := d.Recover(); err != ErrNoWAL {
		t.Fatalf("Recover without WAL = %v", err)
	}
}

func TestRecoveryIdempotentForBitmaps(t *testing.T) {
	// A replayed update-bit record must not corrupt bitmaps that already
	// reflect the delete (the bitmap page was checkpointed before the
	// crash): Set is idempotent.
	d := newTestDataset(t, func(c *Config) { c.Strategy = MutableBitmap })
	mustUpsert(t, d, 10, "CA", 2015)
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	mustUpsert(t, d, 10, "NY", 2016) // sets the bit in the flushed component
	comp := d.Primary().Components()[0]
	if comp.Valid.Count() != 1 {
		t.Fatal("setup: bit not set")
	}
	d.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if comp.Valid.Count() != 1 {
		t.Fatalf("bitmap corrupted by replay: %d bits", comp.Valid.Count())
	}
	e, found := mustGet(t, d, 10)
	if !found {
		t.Fatal("record lost")
	}
	if loc, _ := recLocation(e.Value); string(loc) != "NY" {
		t.Fatalf("recovered wrong version: %s", loc)
	}
}

func TestRecoveryPreservesTimestampOrder(t *testing.T) {
	d := newTestDataset(t, func(c *Config) { c.Strategy = Validation })
	mustUpsert(t, d, 5, "CA", 2015)
	mustUpsert(t, d, 5, "NY", 2016)
	d.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	// New writes after recovery must get fresh, larger timestamps.
	tsBefore := d.CurrentTS()
	mustUpsert(t, d, 5, "UT", 2017)
	if d.CurrentTS() <= tsBefore {
		t.Fatal("clock did not advance past replayed timestamps")
	}
	e, _ := mustGet(t, d, 5)
	if loc, _ := recLocation(e.Value); string(loc) != "UT" {
		t.Fatalf("latest write lost: %s", loc)
	}
}

// TestComponentTimestampRangesDisjoint checks the invariant the record
// fetch's pruning after Timestamp validation rests on: a tree's disk
// components hold disjoint timestamp ranges, ordered oldest to newest, so a
// version's timestamp names the one component that can hold it. Flushes,
// merges and a crash with its replay must all keep it, under every
// strategy.
func TestComponentTimestampRangesDisjoint(t *testing.T) {
	for _, strat := range []Strategy{Eager, Validation, MutableBitmap, DeletedKey} {
		t.Run(strat.String(), func(t *testing.T) {
			d := newTestDataset(t, func(c *Config) {
				c.Strategy = strat
				c.Policy = lsm.NewTiering(48 << 10)
			})
			driveMixed(t, d, 17, 1500, 100)
			d.Crash()
			if err := d.Recover(); err != nil {
				t.Fatal(err)
			}
			driveMixed(t, d, 18, 1500, 100)
			if err := d.FlushAll(); err != nil {
				t.Fatal(err)
			}
			for _, tree := range []*lsm.Tree{d.Primary(), d.PKIndex()} {
				comps := tree.Components()
				merged := false
				for i, c := range comps {
					merged = merged || c.EpochMin < c.EpochMax
					if c.ID.MinTS > c.ID.MaxTS || i > 0 && comps[i-1].ID.MaxTS >= c.ID.MinTS {
						t.Fatalf("component %d of %d holds [%d, %d] after %+v", i, len(comps), c.ID.MinTS, c.ID.MaxTS, comps[max(i-1, 0)].ID)
					}
				}
				if len(comps) < 2 || !merged {
					t.Fatalf("setup: %d components, merged %v", len(comps), merged)
				}
			}
		})
	}
}

// driveNoFlush applies a deterministic op stream without ever draining, so
// asynchronous flush batches and merges pile up behind the writers.
func driveNoFlush(t *testing.T, d *Dataset, seed int64, nOps int) map[uint64]string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	model := make(map[uint64]string)
	for i := 0; i < nOps; i++ {
		pk := uint64(rng.Intn(300))
		loc := fmt.Sprintf("L%02d", rng.Intn(20))
		if rng.Intn(6) == 0 {
			if _, err := d.Delete(pkOf(pk)); err != nil {
				t.Fatal(err)
			}
			delete(model, pk)
		} else {
			mustUpsert(t, d, pk, loc, int64(2000+i))
			model[pk] = loc
		}
	}
	return model
}

// TestCrashDuringAsyncMaintenance kills the store while background flush
// builds and merges are in flight — queued batches die with their frozen
// memtables, in-flight installs abandon — and asserts Recover restores the
// exact committed state from the write-ahead log. A tiny memory budget and
// an uncapped tiering policy keep the single-worker pool saturated, so the
// crash lands mid-build/mid-merge with batches still pending.
func TestCrashDuringAsyncMaintenance(t *testing.T) {
	for _, strat := range []Strategy{Eager, Validation, MutableBitmap, DeletedKey} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				pool := maint.NewPool(1)
				d := newTestDataset(t, func(c *Config) {
					c.Strategy = strat
					c.Maintenance = pool
					c.MemoryBudget = 16 << 10
					c.Policy = lsm.NewTiering(0)
					// Let maintenance lag far behind the writers so the
					// crash catches pending and in-flight work.
					c.MaxFrozenMemtables = 1 << 20
				})
				model := driveNoFlush(t, d, int64(100+trial), 1500)
				d.Crash()
				if err := d.Recover(); err != nil {
					t.Fatal(err)
				}
				verifyModel(t, d, model)
				// Post-recovery maintenance still works: flush, merge,
				// verify again.
				if err := d.FlushAll(); err != nil {
					t.Fatal(err)
				}
				verifyModel(t, d, model)
				pool.Close()
			}
		})
	}
}

// TestCrashRecoveryAsyncAllStrategies is the asynchronous twin of
// TestCrashRecoveryAllStrategies: the same mixed workload with periodic
// drains, crashed and recovered, must restore the model under background
// maintenance too.
func TestCrashRecoveryAsyncAllStrategies(t *testing.T) {
	for _, strat := range []Strategy{Eager, Validation, MutableBitmap, DeletedKey} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			pool := maint.NewPool(2)
			defer pool.Close()
			d := newTestDataset(t, func(c *Config) {
				c.Strategy = strat
				c.Maintenance = pool
				c.Policy = lsm.NewTiering(0)
				c.MemoryBudget = 64 << 10
			})
			model := driveMixed(t, d, 61, 2000, 400)
			d.Crash()
			if err := d.Recover(); err != nil {
				t.Fatal(err)
			}
			verifyModel(t, d, model)
		})
	}
}

// driveReplayStream applies a seeded insert/upsert/delete stream (duplicate
// inserts and deletes of missing keys included), flushing every flushEvery
// operations when that is positive.
func driveReplayStream(t *testing.T, d *Dataset, seed int64, nOps, flushEvery int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nOps; i++ {
		pk := pkOf(uint64(rng.Intn(200)))
		rec := testRecord(fmt.Sprintf("L%02d", rng.Intn(20)), int64(2000+i))
		var err error
		switch rng.Intn(6) {
		case 0:
			_, err = d.Delete(pk)
		case 1:
			_, err = d.Insert(pk, rec)
		default:
			err = d.Upsert(pk, rec)
		}
		if err != nil {
			t.Fatal(err)
		}
		if flushEvery > 0 && i > 0 && i%flushEvery == 0 {
			if err := d.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// memImage lists a tree's memory component entry for entry.
func memImage(tr *lsm.Tree) []string {
	var out []string
	it := tr.Mem().NewIterator(nil, nil)
	for e, ok := it.Next(); ok; e, ok = it.Next() {
		out = append(out, fmt.Sprintf("key=%x ts=%d anti=%v value=%x", e.Key, e.TS, e.Anti, e.Value))
	}
	return out
}

// TestReplayMatchesLive pins recovery as re-execution (Section 2.2): a
// dataset that crashed and replayed its log must hold, in every index, the
// memory image of a dataset that ran the same stream and never crashed —
// the same entries, timestamps, anti-matter and deleted-key bookkeeping, not
// merely the same answers. The flushed variant adds disk components, so
// Mutable-bitmap update-bit replay runs against bitmaps that already
// reflect the deletes (Section 5.2).
func TestReplayMatchesLive(t *testing.T) {
	for _, strat := range []Strategy{Eager, Validation, MutableBitmap, DeletedKey} {
		for _, flushEvery := range []int{0, 300} {
			t.Run(fmt.Sprintf("%v/flushEvery=%d", strat, flushEvery), func(t *testing.T) {
				open := func() *Dataset {
					d := newTestDataset(t, func(c *Config) { c.Strategy = strat })
					driveReplayStream(t, d, 83, 1500, flushEvery)
					return d
				}
				live, recovered := open(), open()
				recovered.Crash()
				if err := recovered.Recover(); err != nil {
					t.Fatal(err)
				}
				if n := live.Primary().NumDiskComponents(); (n == 0) != (flushEvery == 0) {
					t.Fatalf("setup: %d disk components with flushEvery=%d", n, flushEvery)
				}

				for i, nt := range live.trees {
					want, got := memImage(nt.tree), memImage(recovered.trees[i].tree)
					if len(want) == 0 {
						t.Fatalf("setup: live memory component of tree %d is empty", i)
					}
					if len(got) != len(want) {
						t.Errorf("tree %d: replayed memory component holds %d entries, live %d", i, len(got), len(want))
					}
					for j := 0; j < len(want) && j < len(got); j++ {
						if got[j] != want[j] {
							t.Errorf("tree %d entry %d:\n replayed %s\n live     %s", i, j, got[j], want[j])
							break
						}
					}
					lc, rc := nt.tree.Components(), recovered.trees[i].tree.Components()
					if len(lc) != len(rc) {
						t.Fatalf("tree %d: %d components replayed, %d live", i, len(rc), len(lc))
					}
					for j := range lc {
						if lc[j].Valid.Count() != rc[j].Valid.Count() {
							t.Errorf("tree %d component %d: %d bitmap bits replayed, %d live",
								i, j, rc[j].Valid.Count(), lc[j].Valid.Count())
						}
					}
				}
				for i, si := range live.Secondaries() {
					want, got := si.memDeleted, recovered.Secondaries()[i].memDeleted
					if len(got) != len(want) {
						t.Errorf("secondary %d: memDeleted holds %d keys replayed, %d live", i, len(got), len(want))
					}
					for k, ts := range want {
						if got[k] != ts {
							t.Errorf("secondary %d: memDeleted[%x] = %d replayed, %d live", i, k, got[k], ts)
							break
						}
					}
				}
				for id := uint64(0); id < 200; id++ {
					want, wantFound := mustGet(t, live, id)
					got, gotFound := mustGet(t, recovered, id)
					if gotFound != wantFound || got.TS != want.TS || !bytes.Equal(got.Value, want.Value) {
						t.Fatalf("key %d: replayed (%v, ts %d, %x), live (%v, ts %d, %x)",
							id, gotFound, got.TS, got.Value, wantFound, want.TS, want.Value)
					}
				}
			})
		}
	}
}
