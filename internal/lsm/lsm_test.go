package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/storage"
)

func newTestTree(t testing.TB, pageSize int, opts func(*Options)) (*Tree, *metrics.Env) {
	t.Helper()
	env := metrics.NopEnv()
	disk := storage.NewDisk(storage.ScaledHDD(pageSize))
	store := storage.NewStore(disk, 1<<30, env)
	o := Options{Name: "test", Store: store, BloomFPR: 0.01, Seed: 1}
	if opts != nil {
		opts(&o)
	}
	return New(o), env
}

func key(i int) []byte { return kv.EncodeUint64(uint64(i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%08d", i)) }

// get is Tree.Get with the entry copied out of its pinned page.
func get(tr *Tree, k []byte) (kv.Entry, bool, error) {
	var e kv.Entry
	found, err := tr.Get(k, func(v kv.Entry) { e = v.Clone() })
	return e, found, err
}

func TestMemOnlyGet(t *testing.T) {
	tr, _ := newTestTree(t, 1024, nil)
	tr.Put(kv.Entry{Key: key(1), Value: val(1), TS: 1})
	e, found, err := get(tr, key(1))
	if err != nil || !found || !bytes.Equal(e.Value, val(1)) {
		t.Fatalf("Get: %v %v %v", e, found, err)
	}
	if _, found, _ := get(tr, key(2)); found {
		t.Fatal("missing key found")
	}
}

func TestFlushAndGet(t *testing.T) {
	tr, _ := newTestTree(t, 1024, nil)
	for i := 0; i < 1000; i++ {
		tr.Put(kv.Entry{Key: key(i), Value: val(i), TS: int64(i)})
	}
	comp, err := tr.Flush(1)
	if err != nil {
		t.Fatal(err)
	}
	if comp.NumEntries() != 1000 {
		t.Fatalf("flushed %d entries", comp.NumEntries())
	}
	if comp.ID.MinTS != 0 || comp.ID.MaxTS != 999 {
		t.Fatalf("component ID = %+v", comp.ID)
	}
	if tr.Mem().Len() != 0 {
		t.Fatal("memtable not swapped")
	}
	for i := 0; i < 1000; i++ {
		e, found, err := get(tr, key(i))
		if err != nil || !found || !bytes.Equal(e.Value, val(i)) {
			t.Fatalf("key %d after flush: %v %v", i, found, err)
		}
	}
	if _, err := tr.Flush(2); err != ErrEmptyFlush {
		t.Fatalf("empty flush error = %v", err)
	}
}

func TestNewerComponentWins(t *testing.T) {
	tr, _ := newTestTree(t, 1024, nil)
	tr.Put(kv.Entry{Key: key(1), Value: []byte("old"), TS: 1})
	tr.Flush(1)
	tr.Put(kv.Entry{Key: key(1), Value: []byte("new"), TS: 2})
	tr.Flush(2)
	e, found, _ := get(tr, key(1))
	if !found || string(e.Value) != "new" {
		t.Fatalf("Get = %v %v", e, found)
	}
	// memory beats disk
	tr.Put(kv.Entry{Key: key(1), Value: []byte("newest"), TS: 3})
	e, _, _ = get(tr, key(1))
	if string(e.Value) != "newest" {
		t.Fatalf("memory should win: %v", e)
	}
}

func TestAntiMatterHidesKey(t *testing.T) {
	tr, _ := newTestTree(t, 1024, nil)
	tr.Put(kv.Entry{Key: key(5), Value: val(5), TS: 1})
	tr.Flush(1)
	tr.Put(kv.Entry{Key: key(5), TS: 2, Anti: true})
	if _, found, _ := get(tr, key(5)); found {
		t.Fatal("anti-matter in memory should hide the key")
	}
	tr.Flush(2)
	if _, found, _ := get(tr, key(5)); found {
		t.Fatal("anti-matter on disk should hide the key")
	}
}

func TestMergeReconcilesAndDropsAnti(t *testing.T) {
	tr, _ := newTestTree(t, 1024, nil)
	for i := 0; i < 100; i++ {
		tr.Put(kv.Entry{Key: key(i), Value: []byte("v1"), TS: int64(i)})
	}
	tr.Flush(1)
	for i := 50; i < 100; i++ {
		tr.Put(kv.Entry{Key: key(i), Value: []byte("v2"), TS: int64(100 + i)})
	}
	for i := 0; i < 10; i++ {
		tr.Put(kv.Entry{Key: key(i), TS: int64(300 + i), Anti: true})
	}
	tr.Flush(2)

	res, err := tr.Merge(MergeSpec{Lo: 0, Hi: 2, DropAnti: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Install(res); err != nil {
		t.Fatal(err)
	}
	if tr.NumDiskComponents() != 1 {
		t.Fatalf("components = %d", tr.NumDiskComponents())
	}
	comp := tr.Components()[0]
	// 100 keys - 10 deleted = 90 survivors, tombstones dropped
	if comp.NumEntries() != 90 {
		t.Fatalf("merged entries = %d, want 90", comp.NumEntries())
	}
	for i := 0; i < 10; i++ {
		if _, found, _ := get(tr, key(i)); found {
			t.Fatalf("deleted key %d visible after merge", i)
		}
	}
	for i := 50; i < 100; i++ {
		e, found, _ := get(tr, key(i))
		if !found || string(e.Value) != "v2" {
			t.Fatalf("key %d: %v %v", i, e, found)
		}
	}
	if comp.ID.MinTS != 0 || comp.ID.MaxTS != 309 {
		t.Fatalf("merged ID = %+v", comp.ID)
	}
}

func TestMergeKeepsAntiWithoutDrop(t *testing.T) {
	tr, _ := newTestTree(t, 1024, nil)
	tr.Put(kv.Entry{Key: key(1), Value: []byte("v"), TS: 1})
	tr.Flush(1)
	tr.Put(kv.Entry{Key: key(1), TS: 2, Anti: true})
	tr.Flush(2)
	tr.Put(kv.Entry{Key: key(2), Value: []byte("x"), TS: 3})
	tr.Flush(3)

	// merge only the two newest components: the tombstone must survive
	res, err := tr.Merge(MergeSpec{Lo: 1, Hi: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr.Install(res)
	if _, found, _ := get(tr, key(1)); found {
		t.Fatal("tombstone lost in partial merge")
	}
	comp := tr.Components()[1]
	if comp.NumEntries() != 2 { // anti(1) + x(2)
		t.Fatalf("entries = %d, want 2", comp.NumEntries())
	}
}

func TestScanReconciled(t *testing.T) {
	tr, _ := newTestTree(t, 1024, nil)
	for i := 0; i < 200; i++ {
		tr.Put(kv.Entry{Key: key(i), Value: []byte("v1"), TS: int64(i)})
	}
	tr.Flush(1)
	for i := 0; i < 200; i += 2 {
		tr.Put(kv.Entry{Key: key(i), Value: []byte("v2"), TS: int64(200 + i)})
	}
	tr.Flush(2)
	for i := 0; i < 50; i++ {
		tr.Put(kv.Entry{Key: key(i), TS: int64(500 + i), Anti: true})
	}

	it, err := NewMergedIterator(IterOptions{
		Components: tr.Components(),
		Mem:        tr.Mem(),
		HideAnti:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for {
		item, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		i := int(kv.DecodeUint64(item.Entry.Key))
		if i < 50 {
			t.Fatalf("deleted key %d leaked", i)
		}
		want := "v1"
		if i%2 == 0 {
			want = "v2"
		}
		if string(item.Entry.Value) != want {
			t.Fatalf("key %d: value %q want %q", i, item.Entry.Value, want)
		}
		seen++
	}
	if seen != 150 {
		t.Fatalf("scan saw %d keys, want 150", seen)
	}
}

func TestMutableBitmapHidesEntries(t *testing.T) {
	tr, _ := newTestTree(t, 1024, func(o *Options) { o.MutableBitmaps = true })
	for i := 0; i < 100; i++ {
		tr.Put(kv.Entry{Key: key(i), Value: val(i), TS: int64(i)})
	}
	tr.Flush(1)
	comp := tr.Components()[0]
	if comp.Valid == nil {
		t.Fatal("mutable bitmap missing")
	}
	ord, found, err := comp.BTree.Get(key(7), nil)
	if err != nil || !found {
		t.Fatal("setup failed")
	}
	comp.Valid.Set(ord)
	if _, found, _ := get(tr, key(7)); found {
		t.Fatal("bitmap-deleted key visible via Get")
	}
	it, _ := NewMergedIterator(IterOptions{Components: tr.Components(), HideAnti: true, SkipInvisible: true})
	for {
		item, ok, _ := it.Next()
		if !ok {
			break
		}
		if kv.DecodeUint64(item.Entry.Key) == 7 {
			t.Fatal("bitmap-deleted key visible via scan")
		}
	}
	// merge physically removes it
	res, err := tr.Merge(MergeSpec{Lo: 0, Hi: 1, DropAnti: true})
	if err != nil {
		t.Fatal(err)
	}
	tr.Install(res)
	if got := tr.Components()[0].NumEntries(); got != 99 {
		t.Fatalf("entries after merge = %d, want 99", got)
	}
}

func TestRangeFilterFlushAndMerge(t *testing.T) {
	extract := func(e kv.Entry) (int64, bool) {
		if len(e.Value) < 8 {
			return 0, false
		}
		return int64(kv.DecodeUint64(e.Value[:8])), true
	}
	tr, _ := newTestTree(t, 1024, func(o *Options) { o.FilterExtract = extract })
	for i := 0; i < 50; i++ {
		tr.Put(kv.Entry{Key: key(i), Value: kv.EncodeUint64(uint64(2000 + i)), TS: int64(i)})
		tr.WidenMemFilter(int64(2000 + i))
	}
	comp, err := tr.Flush(1)
	if err != nil {
		t.Fatal(err)
	}
	if !comp.HasFilter || comp.FilterMin != 2000 || comp.FilterMax != 2049 {
		t.Fatalf("flush filter = %+v", comp)
	}
	if comp.FilterDisjoint(1000, 1999) != true {
		t.Fatal("disjoint range should prune")
	}
	if comp.FilterDisjoint(2049, 3000) {
		t.Fatal("overlapping range must not prune")
	}

	// merge recomputes the filter from surviving records
	for i := 0; i < 25; i++ {
		tr.Put(kv.Entry{Key: key(i), Value: kv.EncodeUint64(uint64(3000 + i)), TS: int64(100 + i)})
		tr.WidenMemFilter(int64(3000 + i))
	}
	tr.Flush(2)
	res, err := tr.Merge(MergeSpec{Lo: 0, Hi: 2, DropAnti: true})
	if err != nil {
		t.Fatal(err)
	}
	tr.Install(res)
	m := tr.Components()[0]
	if m.FilterMin != 2025 || m.FilterMax != 3024 {
		t.Fatalf("merged filter = [%d,%d], want [2025,3024]", m.FilterMin, m.FilterMax)
	}
}

func TestTieringPolicy(t *testing.T) {
	p := NewTiering(0)
	if _, ok := p.Pick([]int64{100}); ok {
		t.Fatal("single component must not merge")
	}
	// younger total 100+30 = 130 >= 1.2*100
	if c, ok := p.Pick([]int64{100, 100, 30}); !ok || c.Lo != 0 || c.Hi != 3 {
		t.Fatalf("Pick = %+v %v", c, ok)
	}
	// younger 50 < 1.2*100, but inner pair: 30 >= 1.2*20? no, 30>=24 yes -> [1,3)
	if c, ok := p.Pick([]int64{100, 20, 30}); !ok || c.Lo != 1 || c.Hi != 3 {
		t.Fatalf("Pick = %+v %v", c, ok)
	}
	if _, ok := p.Pick([]int64{100, 10, 2}); ok {
		t.Fatal("no merge due")
	}
	// frozen oversized component excluded
	p2 := NewTiering(150)
	if c, ok := p2.Pick([]int64{1000, 40, 60}); !ok || c.Lo != 1 || c.Hi != 3 {
		t.Fatalf("frozen Pick = %+v %v", c, ok)
	}
	// cap prevents producing an oversized component
	if _, ok := p2.Pick([]int64{100, 130}); ok {
		t.Fatal("merge exceeding cap must be skipped")
	}
}

func TestLevelingPolicy(t *testing.T) {
	p := &Leveling{SizeRatio: 10}
	if _, ok := p.Pick([]int64{1000}); ok {
		t.Fatal("single component")
	}
	if c, ok := p.Pick([]int64{1000, 150}); !ok || c.Lo != 0 || c.Hi != 2 {
		t.Fatalf("Pick = %+v %v", c, ok)
	}
	if _, ok := p.Pick([]int64{1000, 50}); ok {
		t.Fatal("below ratio")
	}
}

func TestGetAgainstModelWithFlushesAndMerges(t *testing.T) {
	tr, _ := newTestTree(t, 2048, nil)
	rng := rand.New(rand.NewSource(23))
	model := map[uint64]string{}
	ts := int64(0)
	policy := NewTiering(0)
	for round := 0; round < 30; round++ {
		for op := 0; op < 300; op++ {
			k := uint64(rng.Intn(2000))
			ts++
			if rng.Intn(5) == 0 {
				delete(model, k)
				tr.Put(kv.Entry{Key: kv.EncodeUint64(k), TS: ts, Anti: true})
			} else {
				v := fmt.Sprintf("v%d", ts)
				model[k] = v
				tr.Put(kv.Entry{Key: kv.EncodeUint64(k), Value: []byte(v), TS: ts})
			}
		}
		if _, err := tr.Flush(uint64(round)); err != nil {
			t.Fatal(err)
		}
		sizes := make([]int64, 0, tr.NumDiskComponents())
		for _, c := range tr.Components() {
			sizes = append(sizes, c.SizeBytes())
		}
		if cand, ok := policy.Pick(sizes); ok {
			res, err := tr.Merge(MergeSpec{Lo: cand.Lo, Hi: cand.Hi, DropAnti: cand.Lo == 0})
			if err != nil {
				t.Fatal(err)
			}
			tr.Install(res)
		}
	}
	for k := uint64(0); k < 2000; k++ {
		e, found, err := get(tr, kv.EncodeUint64(k))
		if err != nil {
			t.Fatal(err)
		}
		want, ok := model[k]
		if found != ok {
			t.Fatalf("key %d: found=%v want=%v", k, found, ok)
		}
		if found && string(e.Value) != want {
			t.Fatalf("key %d: value %q want %q", k, e.Value, want)
		}
	}
}
