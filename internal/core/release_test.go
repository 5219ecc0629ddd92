package core_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"weak"

	"repro/internal/bloom"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/lsm"
	"repro/internal/maint"
	"repro/internal/memtable"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/storage"
)

// openReleaseDataset opens the served shape of a shard — Validation, the
// primary key index, one secondary index, bloom.V2 filters — on a pool of
// the given workers, merging by policy.
func openReleaseDataset(t *testing.T, workers int, policy lsm.Policy) *core.Dataset {
	t.Helper()
	pool := maint.NewPool(workers)
	t.Cleanup(pool.Close)
	d, err := core.Open(core.Config{
		Store:         storage.NewStore(storage.NewDisk(storage.ScaledHDD(4096)), 1<<30, metrics.NopEnv()),
		Strategy:      core.Validation,
		Secondaries:   []core.SecondarySpec{{Name: "location", Extract: locationOf}},
		FilterExtract: yearOf,
		MemoryBudget:  1 << 20,
		UsePKIndex:    true,
		BloomFPR:      0.01,
		Bloom:         bloom.KindV2,
		Policy:        policy,
		Maintenance:   pool,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// upsertRange writes ids [from, to) and answers one validated secondary
// query, so the read path's recycled scratch has held views of the memory
// components the next flush freezes.
func upsertRange(t *testing.T, d *core.Dataset, from, to uint64) {
	t.Helper()
	for id := from; id < to; id++ {
		rec := append(kv.AppendUint64(nil, 2000+id), fmt.Sprintf("L%d", id%6)...)
		if err := d.Upsert(kv.EncodeUint64(id), rec); err != nil {
			t.Fatal(err)
		}
	}
	_, err := query.SecondaryRange(d, d.Secondary("location"), []byte("L0"), []byte("L3"), query.SecondaryQueryOptions{
		Validation: query.Direct,
		Lookup:     query.DefaultLookupConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
}

// indexTrees names the dataset's three LSM-trees.
func indexTrees(d *core.Dataset) map[string]*lsm.Tree {
	return map[string]*lsm.Tree{"primary": d.Primary(), "primary key": d.PKIndex(), "secondary": d.Secondary("location").Tree}
}

// liveTables returns weak pointers to the memory components of every index,
// the tables the next flush freezes. It holds no strong reference past its
// return.
func liveTables(t *testing.T, d *core.Dataset) map[string]weak.Pointer[memtable.Table] {
	t.Helper()
	out := map[string]weak.Pointer[memtable.Table]{}
	for name, tr := range indexTrees(d) {
		mem := tr.Mem()
		if mem.Len() == 0 {
			t.Fatalf("%s: memory component is empty; the flush would freeze nothing", name)
		}
		out[name] = weak.Make(mem)
	}
	return out
}

// TestFlushReleasesFrozenMemtables installs a flush batch and requires every
// frozen memtable of it — primary, primary key index and secondary — to be
// unreachable once no view pins it: an installed batch holds nothing, so
// the heap keeps the live memtables' budget, not an extra flushed one.
func TestFlushReleasesFrozenMemtables(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			d := openReleaseDataset(t, workers, nil)
			for round := uint64(0); round < 3; round++ {
				upsertRange(t, d, round*500, round*500+800)
				frozen := liveTables(t, d)
				if err := d.FlushAll(); err != nil {
					t.Fatal(err)
				}
				runtime.GC()
				for name, w := range frozen {
					if w.Value() != nil {
						t.Errorf("flush %d: the %s index's frozen memtable is still reachable after its install", round+1, name)
					}
				}
			}
			runtime.KeepAlive(d) // the dataset itself stays reachable
		})
	}
}

// mergeAll is a merge policy a test switches on: off, it never merges; on,
// it merges every component of a tree into one.
type mergeAll struct{ on atomic.Bool }

func (p *mergeAll) Pick(sizes []int64) (lsm.MergeCandidate, bool) {
	if !p.on.Load() || len(sizes) < 2 {
		return lsm.MergeCandidate{}, false
	}
	return lsm.MergeCandidate{Lo: 0, Hi: len(sizes)}, true
}

// TestMergeReleasesRetiredComponents merges every index's flushed components
// into one and requires the merged-away ones — each component, its B+-tree
// reader and its Bloom filter — to be unreachable once the merge and its
// reclaim are done.
func TestMergeReleasesRetiredComponents(t *testing.T) {
	type retired struct {
		name   string
		comp   weak.Pointer[lsm.Component]
		reader weak.Pointer[btree.Reader]
		filter weak.Pointer[bloom.V2] // zero for a tree without filters
	}
	// components takes weak pointers to every disk component of every index.
	components := func(t *testing.T, d *core.Dataset) []retired {
		t.Helper()
		var out []retired
		for name, tr := range indexTrees(d) {
			for i, c := range tr.Components() {
				r := retired{name: fmt.Sprintf("%s component %d", name, i), comp: weak.Make(c), reader: weak.Make(c.BTree)}
				if c.Bloom != nil {
					v2, ok := c.Bloom.(*bloom.V2)
					if !ok {
						t.Fatalf("%s: filter is %T, want *bloom.V2", r.name, c.Bloom)
					}
					r.filter = weak.Make(v2)
				} else if tr != d.Secondary("location").Tree {
					t.Fatalf("%s has no Bloom filter", r.name)
				}
				out = append(out, r)
			}
		}
		return out
	}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			policy := new(mergeAll)
			d := openReleaseDataset(t, workers, policy)
			for round := uint64(0); round < 2; round++ {
				upsertRange(t, d, round*300, round*300+500)
				if err := d.FlushAll(); err != nil {
					t.Fatal(err)
				}
			}
			gone := components(t, d)
			if len(gone) != 6 {
				t.Fatalf("%d components after two flushes, want 2 per index", len(gone))
			}
			// The third batch's install runs the merge pass: every index
			// merges its three components into one.
			policy.on.Store(true)
			upsertRange(t, d, 1000, 1100)
			if err := d.FlushAll(); err != nil {
				t.Fatal(err)
			}
			for name, tr := range indexTrees(d) {
				if n := tr.NumDiskComponents(); n != 1 {
					t.Fatalf("%s: %d components after the merge, want 1", name, n)
				}
			}
			runtime.GC()
			for _, r := range gone {
				if r.comp.Value() != nil {
					t.Errorf("%s: merged away but still reachable", r.name)
				}
				if r.reader.Value() != nil {
					t.Errorf("%s: merged away but its B+-tree reader is still reachable", r.name)
				}
				if r.filter.Value() != nil {
					t.Errorf("%s: merged away but its Bloom filter is still reachable", r.name)
				}
			}
			runtime.KeepAlive(d)
		})
	}
}
