package lsm

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/kv"
)

// lookupTree builds a tree whose keys 0..199 are spread over two disk
// components, two frozen (flushing) memtables and the live memtable, with
// anti-matter at every level and two versions deleted through their
// components' validity bits; keys 200..249 exist nowhere.
func lookupTree(t *testing.T) *Tree {
	t.Helper()
	tr, _ := newTestTree(t, 1024, func(o *Options) { o.MutableBitmaps = true })
	ts := int64(0)
	put := func(i int, anti bool) {
		ts++
		e := kv.Entry{Key: key(i), TS: ts, Anti: anti}
		if !anti {
			e.Value = val(int(ts))
		}
		tr.Put(e)
	}
	for i := 0; i < 200; i++ {
		put(i, false)
	}
	if _, err := tr.Flush(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i += 3 {
		put(i, false)
	}
	for i := 10; i < 20; i++ {
		put(i, true)
	}
	newest, err := tr.Flush(2)
	if err != nil {
		t.Fatal(err)
	}
	// A Valid-bit delete of key 30's newest version (in the newer disk
	// component) and of key 101's (in the older one).
	for _, i := range []int{30, 101} {
		c := newest
		if i == 101 {
			c = tr.Components()[0]
		}
		ord, found, err := c.BTree.Get(key(i), nil)
		if err != nil || !found {
			t.Fatalf("key %d: setup failed (%v)", i, err)
		}
		c.Valid.Set(ord)
	}
	for i := 150; i < 160; i++ {
		put(i, false)
	}
	put(160, true)
	if _, _, ok := tr.Freeze(); !ok {
		t.Fatal("nothing frozen")
	}
	put(150, false)
	put(161, true)
	if _, _, ok := tr.Freeze(); !ok {
		t.Fatal("nothing frozen")
	}
	for i := 0; i < 6; i++ {
		put(i, false)
	}
	put(6, true)
	put(151, true)
	return tr
}

// TestViewLookupMatchesGet: over memory, flushing and disk components with
// anti-matter and a Valid-bit delete, View.Lookup answers every key as
// Tree.Get does, with every plan (one key per batch, small batches, one
// batch; stateless and stateful cursors): a key Get finds is found with the
// same newest version, and a key Get reads as absent is found nowhere or
// found as anti-matter or Valid-deleted. A skip callback that prunes every
// disk component leaves only the memory components' answers and counts one
// point lookup per key.
func TestViewLookupMatchesGet(t *testing.T) {
	tr := lookupTree(t)
	const n = 250
	want := make([]string, n)
	for i := range n {
		e, found, err := get(tr, key(i))
		if err != nil {
			t.Fatal(err)
		}
		if found {
			want[i] = fmt.Sprintf("%d=%s", e.TS, e.Value)
		}
	}
	v := tr.ReadView()
	defer v.Release()
	if len(v.Flushing) != 2 || len(v.Components) != 2 {
		t.Fatalf("view has %d flushing tables and %d components, want 2 and 2", len(v.Flushing), len(v.Components))
	}
	var lk Lookups
	for _, batchKeys := range []int{1, 7, n} {
		for _, stateful := range []bool{false, true} {
			got := make([]string, n)
			calls := make([]int, n)
			err := v.Lookup(&lk, n, batchKeys, stateful,
				func(i int) []byte { return key(i) },
				func(int, *Component) bool { return false },
				func(i int, e kv.Entry, deleted bool) {
					calls[i]++
					if !e.Anti && !deleted {
						got[i] = fmt.Sprintf("%d=%s", e.TS, e.Value)
					}
				})
			if err != nil {
				t.Fatal(err)
			}
			for i := range n {
				if got[i] != want[i] || calls[i] > 1 || (i < 200) != (calls[i] == 1) {
					t.Fatalf("batch %d stateful %v key %d: Lookup %q (%d calls), Get %q",
						batchKeys, stateful, i, got[i], calls[i], want[i])
				}
			}
			lk.Reset()
		}
	}
	// Pruning every disk component leaves the memory components' keys,
	// and one point lookup per key: its memory probe.
	var inMem []int
	before := tr.Env().Counters.PointLookups.Load()
	err := v.Lookup(&lk, n, 1, true,
		func(i int) []byte { return key(i) },
		func(int, *Component) bool { return true },
		func(i int, e kv.Entry, _ bool) { inMem = append(inMem, i) })
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(inMem) != "[0 1 2 3 4 5 6 150 151 152 153 154 155 156 157 158 159 160 161]" {
		t.Fatalf("with every disk component pruned, found %v", inMem)
	}
	if d := tr.Env().Counters.PointLookups.Load() - before; d != n {
		t.Fatalf("with every disk component pruned, %d point lookups counted for %d keys", d, n)
	}
}

// TestResetLookupsReferenceNoComponent: after Reset, a Lookups keeps no
// cursor that references a component, up to its capacity — also after a
// lookup over fewer components than an earlier one, whose cursors lie past
// the later length.
func TestResetLookupsReferenceNoComponent(t *testing.T) {
	tr := flushed(t, 3, nil)
	var lk Lookups
	lookup := func() {
		v := tr.ReadView()
		defer v.Release()
		var hits int
		err := v.Lookup(&lk, 100, 16, true,
			func(i int) []byte { return key(i) },
			func(int, *Component) bool { return false },
			func(i int, e kv.Entry, _ bool) {
				if bytes.Equal(e.Key, key(i)) {
					hits++
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		if hits != 100 {
			t.Fatalf("%d of 100 keys found", hits)
		}
	}
	lookup()
	if cap(lk.cursors) < 3 {
		t.Fatalf("cursor capacity %d after a lookup over 3 components", cap(lk.cursors))
	}
	mergeAll(t, tr)
	lookup()
	lk.Reset()
	for i, c := range lk.cursors[:cap(lk.cursors)] {
		if !reflect.ValueOf(c).IsZero() {
			t.Fatalf("cursor %d of %d still references a component after Reset", i, cap(lk.cursors))
		}
	}
}

// TestViewGetLocatesNewestEntry: View.Get reports where the newest entry
// lives — a disk component and its ordinal there, or nil for memory — a
// disk-only view (Mem nil) misses a key held only in memory, and on
// TestViewLookupMatchesGet's fixture (anti-matter, Valid-bit deletes,
// frozen memtables) it gives View.Lookup's one-key answer on every key,
// counting one point lookup per call.
func TestViewGetLocatesNewestEntry(t *testing.T) {
	tr, _ := newTestTree(t, 1024, nil)
	tr.Put(kv.Entry{Key: key(1), Value: val(1), TS: 1})
	if _, err := tr.Flush(1); err != nil {
		t.Fatal(err)
	}
	tr.Put(kv.Entry{Key: key(2), Value: val(2), TS: 2})
	v := tr.ReadView()
	disk := v
	disk.Mem, disk.Flushing = nil, nil
	locate := func(view View, k []byte) (*Component, int64, bool) {
		var comp *Component
		var ord int64
		found, err := view.Get(k, func(_ kv.Entry, c *Component, o int64) { comp, ord = c, o })
		if err != nil {
			t.Fatal(err)
		}
		return comp, ord, found
	}
	if c, ord, found := locate(disk, key(1)); !found || c != v.Components[0] || ord != 0 {
		t.Fatalf("disk key: found=%v at %v/%d, want the only component, ordinal 0", found, c, ord)
	}
	if _, _, found := locate(disk, key(2)); found {
		t.Fatal("a disk-only view found a key held only in memory")
	}
	if c, _, found := locate(v, key(2)); !found || c != nil {
		t.Fatalf("memory key: found=%v in %v, want a nil component", found, c)
	}
	v.Release()

	tr = lookupTree(t)
	v = tr.ReadView()
	defer v.Release()
	const n = 250
	var lk Lookups
	for i := range n {
		lookup, got := "absent", "absent"
		err := v.Lookup(&lk, 1, 1, false,
			func(int) []byte { return key(i) },
			func(int, *Component) bool { return false },
			func(_ int, e kv.Entry, deleted bool) {
				lookup = fmt.Sprintf("%d=%s anti=%v deleted=%v", e.TS, e.Value, e.Anti, deleted)
			})
		if err != nil {
			t.Fatal(err)
		}
		before := tr.Env().Counters.PointLookups.Load()
		_, err = v.Get(key(i), func(e kv.Entry, c *Component, ord int64) {
			got = fmt.Sprintf("%d=%s anti=%v deleted=%v", e.TS, e.Value, e.Anti, c != nil && c.Valid.IsSet(ord))
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != lookup {
			t.Fatalf("key %d: Get %q, Lookup %q", i, got, lookup)
		}
		if d := tr.Env().Counters.PointLookups.Load() - before; d != 1 {
			t.Fatalf("key %d: Get counted %d point lookups, want 1", i, d)
		}
	}
}
