package lsm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/kv"
	"repro/internal/memtable"
)

func TestIDOverlaps(t *testing.T) {
	cases := []struct {
		a, b ID
		want bool
	}{
		{ID{1, 15}, ID{16, 18}, false},
		{ID{1, 15}, ID{1, 10}, true},
		{ID{1, 15}, ID{15, 20}, true},
		{ID{5, 5}, ID{5, 5}, true},
		{ID{1, 4}, ID{5, 9}, false},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("overlaps must be symmetric: %v %v", c.a, c.b)
		}
	}
}

func TestNoReconcileEmitsAllVersionsNewestFirst(t *testing.T) {
	tr, _ := newTestTree(t, 1024, nil)
	tr.Put(kv.Entry{Key: key(1), Value: []byte("v1"), TS: 1})
	tr.Put(kv.Entry{Key: key(2), Value: []byte("w1"), TS: 2})
	tr.Flush(1)
	tr.Put(kv.Entry{Key: key(1), Value: []byte("v2"), TS: 3})
	tr.Flush(2)

	it, err := NewMergedIterator(IterOptions{
		Components:  tr.Components(),
		NoReconcile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		item, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, fmt.Sprintf("%d:%s", kv.DecodeUint64(item.Entry.Key), item.Entry.Value))
	}
	want := "[1:v2 1:v1 2:w1]"
	if fmt.Sprint(got) != want {
		t.Fatalf("NoReconcile order = %v, want %v", got, want)
	}
}

func TestIteratorSnapshotsOverrideLiveBitmaps(t *testing.T) {
	tr, _ := newTestTree(t, 1024, func(o *Options) { o.MutableBitmaps = true })
	for i := 0; i < 10; i++ {
		tr.Put(kv.Entry{Key: key(i), Value: val(i), TS: int64(i)})
	}
	tr.Flush(1)
	comp := tr.Components()[0]
	// Snapshot taken with entry 3 already deleted.
	ord3, _, _ := comp.BTree.Get(key(3), nil)
	comp.Valid.Set(ord3)
	snap := comp.Valid.Snapshot()
	// Entry 5 deleted after the snapshot: the snapshot scan must still
	// see it (Fig 11's build phase isolation).
	ord5, _, _ := comp.BTree.Get(key(5), nil)
	comp.Valid.Set(ord5)

	it, err := NewMergedIterator(IterOptions{
		Components:    tr.Components(),
		SkipInvisible: true,
		Snapshots:     map[*Component]*bitmap.Immutable{comp: snap},
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for {
		item, ok, _ := it.Next()
		if !ok {
			break
		}
		seen[kv.DecodeUint64(item.Entry.Key)] = true
	}
	if seen[3] {
		t.Error("snapshot-deleted entry visible")
	}
	if !seen[5] {
		t.Error("post-snapshot delete leaked into the snapshot scan")
	}
	if len(seen) != 9 {
		t.Errorf("saw %d entries, want 9", len(seen))
	}
}

func TestMergeBadRange(t *testing.T) {
	tr, _ := newTestTree(t, 1024, nil)
	tr.Put(kv.Entry{Key: key(1), Value: val(1), TS: 1})
	tr.Flush(1)
	for _, r := range [][2]int{{0, 0}, {-1, 1}, {0, 2}, {1, 1}} {
		if _, err := tr.Merge(MergeSpec{Lo: r[0], Hi: r[1]}); err == nil {
			t.Errorf("range %v accepted", r)
		}
	}
}

// A merge's streamed scans are full scans; key bounds given with them would
// be silently ignored, so Open refuses them.
func TestStreamedScanRefusesKeyBounds(t *testing.T) {
	tr, _ := newTestTree(t, 1024, nil)
	tr.Put(kv.Entry{Key: key(1), Value: val(1), TS: 1})
	tr.Flush(1)
	defer func() {
		if recover() == nil {
			t.Fatal("a streamed scan with a key bound opened")
		}
	}()
	NewMergedIterator(IterOptions{Components: tr.Components(), Lo: key(1), stream: tr.opts.Store})
}

func TestRepairedTSInheritedAtFlushAndMerge(t *testing.T) {
	tr, _ := newTestTree(t, 1024, nil)
	tr.Put(kv.Entry{Key: key(1), Value: val(1), TS: 5})
	tr.Put(kv.Entry{Key: key(2), Value: val(2), TS: 9})
	c1, _ := tr.Flush(1)
	if c1.RepairedTS != 9 {
		t.Fatalf("flush repairedTS = %d, want its own maxTS 9", c1.RepairedTS)
	}
	tr.Put(kv.Entry{Key: key(3), Value: val(3), TS: 20})
	c2, _ := tr.Flush(2)
	if c2.RepairedTS != 20 {
		t.Fatalf("second flush repairedTS = %d", c2.RepairedTS)
	}
	res, err := tr.Merge(MergeSpec{Lo: 0, Hi: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Component.RepairedTS != 9 { // min of inputs
		t.Fatalf("merged repairedTS = %d, want 9", res.Component.RepairedTS)
	}
}

func TestMergedFilterWidensForRetainedAnti(t *testing.T) {
	extract := func(e kv.Entry) (int64, bool) {
		if len(e.Value) < 8 {
			return 0, false
		}
		return int64(kv.DecodeUint64(e.Value[:8])), true
	}
	tr, _ := newTestTree(t, 1024, func(o *Options) { o.FilterExtract = extract })
	tr.Put(kv.Entry{Key: key(1), Value: kv.EncodeUint64(2000), TS: 1})
	tr.WidenMemFilter(2000)
	tr.Flush(1)
	// Delete key 1 and add key 2. Eager-style maintenance widens the
	// memory filter with the deleted record's value (Section 3.1), so the
	// flushed component's filter covers [2000, 3000].
	tr.Put(kv.Entry{Key: key(1), TS: 2, Anti: true})
	tr.WidenMemFilter(2000)
	tr.Put(kv.Entry{Key: key(2), Value: kv.EncodeUint64(3000), TS: 3})
	tr.WidenMemFilter(3000)
	tr.Flush(2)
	// Partial merge of only the newest component keeps the anti-matter:
	// the merged filter must widen to the input's bounds so queries still
	// see the delete evidence.
	res, err := tr.Merge(MergeSpec{Lo: 1, Hi: 2}) // keeps anti
	if err != nil {
		t.Fatal(err)
	}
	tr.Install(res)
	m := tr.Components()[1]
	if !m.HasFilter {
		t.Fatal("merged component lost its filter")
	}
	if m.FilterMin > 2000 {
		t.Fatalf("filter [%d,%d] must cover the anti-matter's epoch", m.FilterMin, m.FilterMax)
	}
	// A full merge drops the anti and the filter tightens to live data.
	res2, err := tr.Merge(MergeSpec{Lo: 0, Hi: 2, DropAnti: true})
	if err != nil {
		t.Fatal(err)
	}
	tr.Install(res2)
	f := tr.Components()[0]
	if f.FilterMin != 3000 || f.FilterMax != 3000 {
		t.Fatalf("post-full-merge filter = [%d,%d], want [3000,3000]", f.FilterMin, f.FilterMax)
	}
}

func TestEpochsUnionAtMerge(t *testing.T) {
	tr, _ := newTestTree(t, 1024, nil)
	for e := uint64(1); e <= 3; e++ {
		tr.Put(kv.Entry{Key: key(int(e)), Value: val(int(e)), TS: int64(e)})
		tr.Flush(e)
	}
	res, err := tr.Merge(MergeSpec{Lo: 0, Hi: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Component.EpochMin != 1 || res.Component.EpochMax != 3 {
		t.Fatalf("merged epochs = [%d,%d]", res.Component.EpochMin, res.Component.EpochMax)
	}
}

// TestReopenedIteratorMatchesFresh: one MergedIterator opened, drained and
// closed over a run of different sources (ranges, component subsets, memory
// or not, reconciled or not, wide before narrow) yields exactly what a fresh
// iterator yields, ranks included, and each Close leaves no pin behind and
// no reference in the sources it keeps for the next Open.
func TestReopenedIteratorMatchesFresh(t *testing.T) {
	tr, _ := newTestTree(t, 256, nil)
	ts := int64(0)
	for round := range 3 {
		for i := round; i < 300; i += 2 + round {
			ts++
			tr.Put(kv.Entry{Key: key(i), Value: val(i + round), TS: ts, Anti: i%17 == round})
		}
		tr.Flush(uint64(round + 1))
	}
	for i := 0; i < 300; i += 7 {
		ts++
		tr.Put(kv.Entry{Key: key(i), Value: val(-i), TS: ts})
	}
	comps := tr.Components()
	drain := func(it *MergedIterator) string {
		var b strings.Builder
		for {
			item, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return b.String()
			}
			fmt.Fprintf(&b, "%x@%d/%d/%v ", item.Entry.Key, item.Entry.TS, item.Rank, item.Comp != nil)
		}
	}
	cases := []IterOptions{
		{Components: comps, Mem: tr.Mem(), HideAnti: true, SkipInvisible: true},
		{Lo: key(50), Hi: key(60), Components: comps[1:], Mem: tr.Mem()},
		{Components: comps[:1], NoReconcile: true},
		{Lo: key(10), Components: comps, Flushing: []*memtable.Table{tr.Mem()}, NoReconcile: true},
		{Hi: key(5), Components: comps[2:]},
		{Mem: tr.Mem()},
	}
	var reused MergedIterator
	for i, opts := range cases {
		fresh, err := NewMergedIterator(opts)
		if err != nil {
			t.Fatal(err)
		}
		want := drain(fresh)
		fresh.Close()
		if err := reused.Open(opts); err != nil {
			t.Fatal(err)
		}
		if got := drain(&reused); got != want {
			t.Fatalf("case %d: reused iterator yields\n%s\nfresh one\n%s", i, got, want)
		}
		reused.Close()
		if n := tr.opts.Store.Cache().Pinned(); n != 0 {
			t.Fatalf("case %d: %d frames pinned after Close", i, n)
		}
		for j, s := range reused.srcs[:cap(reused.srcs)] {
			if !reflect.ValueOf(s).IsZero() {
				t.Fatalf("case %d: source %d still references its query's data after Close", i, j)
			}
		}
	}
}
