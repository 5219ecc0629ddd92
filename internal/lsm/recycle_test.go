package lsm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/kv"
	"repro/internal/memtable"
)

// buildPageSize is the page size the build tests and benchmarks write: the
// served default (storage.SSD).
const buildPageSize = 32 << 10

// fillComponents flushes count components of n fresh keys each into tr.
func fillComponents(t testing.TB, tr *Tree, count, n int) {
	value := make([]byte, 100)
	for c := range count {
		for i := c * n; i < (c+1)*n; i++ {
			tr.Put(kv.Entry{Key: key(i), Value: value, TS: int64(i)})
		}
		if _, err := tr.Flush(uint64(c)); err != nil {
			t.Fatal(err)
		}
	}
}

// pagesOf returns how many pages c's file holds.
func pagesOf(c *Component) int64 { return c.BTree.SizeBytes() / buildPageSize }

// TestWarmBuildAllocations: once the free lists hold a build's scratch, a
// flush build and a merge allocate at most one object per page written —
// the simulated device's copy of the page — plus a constant: the file with
// its page table's growth, the Bloom filter, the reader and the Component
// (and a merge's result and pinned view). Nothing else is per entry, page
// or level.
func TestWarmBuildAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not checked under -race")
	}
	const slack = 24
	for _, n := range []int{1_000, 100_000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			tr, _ := newTestTree(t, buildPageSize, nil)
			mem := memtable.New(1)
			value := make([]byte, 100)
			for i := range n {
				mem.Put(kv.Entry{Key: key(i), Value: value, TS: int64(i)})
			}
			var pages int64
			flush := func() {
				comp, err := tr.BuildFrozen(mem, 1)
				if err != nil {
					t.Fatal(err)
				}
				pages = pagesOf(comp)
				tr.Discard(comp)
			}
			allocs := testing.AllocsPerRun(3, flush)
			t.Logf("flush build: %d pages, %v objects", pages, allocs)
			if allocs > float64(pages+slack) {
				t.Errorf("a warm flush build of %d entries allocated %v objects for %d pages, want at most %d", n, allocs, pages, pages+slack)
			}

			fillComponents(t, tr, 4, n/4)
			merge := func() {
				res, err := tr.Merge(MergeSpec{Lo: 0, Hi: 4, DropAnti: true})
				if err != nil {
					t.Fatal(err)
				}
				pages = pagesOf(res.Component)
				tr.Discard(res.Component)
			}
			allocs = testing.AllocsPerRun(3, merge)
			t.Logf("merge of 4: %d pages, %v objects", pages, allocs)
			if allocs > float64(pages+slack) {
				t.Errorf("a warm merge of 4 components allocated %v objects for %d pages, want at most %d", allocs, pages, pages+slack)
			}
		})
	}
}

// TestConcurrentBuildsShareFreeList: trees flush, merge and build deleted-key
// trees at once, every build taking its scratch from the one pair of free
// lists; each tree still reads back exactly what it was given. Each tree has
// its own key length, so a builder that carried another build's bytes into
// a page would show. Run it under -race.
func TestConcurrentBuildsShareFreeList(t *testing.T) {
	const trees, rounds, perRound = 6, 8, 300
	errs := make([]error, trees)
	var wg sync.WaitGroup
	for g := range trees {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = churn(t, g, rounds, perRound)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("tree %d: %v", g, err)
		}
	}
}

// churn runs rounds of overlapping writes on a tree of its own, each round
// flushed, merging whenever three components pile up and building a
// deleted-key tree of the round's keys, then checks every key's newest value.
func churn(t testing.TB, g, rounds, perRound int) error {
	tr, _ := newTestTree(t, 512, nil)
	gkey := func(i int) []byte {
		k := make([]byte, 4+16*g)
		copy(k, key(i)[4:])
		return k
	}
	want := map[string][]byte{}
	for r := range rounds {
		lo := r * perRound / 2 // half of each round overwrites the last one's keys
		keys := make([]kv.Entry, 0, perRound)
		for i := lo; i < lo+perRound; i++ {
			e := kv.Entry{Key: gkey(i), Value: []byte(fmt.Sprintf("tree %d round %d key %d", g, r, i)), TS: int64(r*perRound + i)}
			tr.Put(e)
			want[string(e.Key)] = e.Value
			keys = append(keys, e)
		}
		if _, err := tr.Flush(uint64(r)); err != nil {
			return err
		}
		if n := len(tr.Components()); n >= 3 {
			res, err := tr.Merge(MergeSpec{Lo: 0, Hi: n, DropAnti: true})
			if err != nil {
				return err
			}
			if err := tr.Install(res); err != nil {
				return err
			}
		}
		ks := NewKeySetBuilder(nil, tr.Options().Store, len(keys))
		for _, e := range keys {
			if err := ks.Add(e); err != nil {
				return err
			}
		}
		set, _, err := ks.Finish()
		if err != nil {
			return err
		}
		for _, e := range keys {
			var got []byte
			if _, found, err := set.Get(e.Key, func(v kv.Entry, _ int64) { got = bytes.Clone(v.Value) }); err != nil || !found || !bytes.Equal(got, e.Value) {
				return fmt.Errorf("deleted-key tree of round %d: key %x read %q (found %v, %v), want %q", r, e.Key, got, found, err, e.Value)
			}
		}
	}
	for k, v := range want {
		e, found, err := get(tr, []byte(k))
		if err != nil || !found || !bytes.Equal(e.Value, v) {
			return fmt.Errorf("key %x read %q (found %v, %v), want %q", k, e.Value, found, err, v)
		}
	}
	return nil
}
