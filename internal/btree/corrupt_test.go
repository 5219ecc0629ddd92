package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// TestOpenRejectsGarbage verifies Open fails cleanly on files that are not
// B+-trees rather than panicking or misreading.
func TestOpenRejectsGarbage(t *testing.T) {
	env := metrics.NopEnv()
	disk := storage.NewDisk(storage.ScaledHDD(1024))
	store := storage.NewStore(disk, 1<<20, env)

	// Empty file.
	f0 := store.Create()
	if _, err := Open(store, f0); err == nil {
		t.Error("empty file accepted")
	}

	// File whose last page is not a meta page.
	f1 := store.Create()
	store.AppendPage(f1, []byte{0xde, 0xad, 0xbe, 0xef})
	if _, err := Open(store, f1); err == nil {
		t.Error("garbage meta page accepted")
	}

	// Truncated meta page.
	f2 := store.Create()
	store.AppendPage(f2, []byte{pageMeta, 0x01})
	if _, err := Open(store, f2); err == nil {
		t.Error("truncated meta page accepted")
	}

	// Missing file.
	if _, err := Open(store, storage.FileID(9999)); err == nil {
		t.Error("missing file accepted")
	}
}

// leafPage assembles a leaf page holding the given count and slot offsets
// followed by body, the way flushLeaf lays one out.
func leafPage(count uint32, offsets []uint32, body []byte) []byte {
	raw := []byte{pageLeaf}
	raw = binary.BigEndian.AppendUint32(raw, count)
	raw = binary.BigEndian.AppendUint64(raw, 0)
	for _, off := range offsets {
		raw = binary.BigEndian.AppendUint32(raw, off)
	}
	return append(raw, body...)
}

// corruptPages are malformed pages: each must be refused with ErrCorrupt by
// the page view or by the first accessor that reaches the damage.
var corruptPages = map[string][]byte{
	"empty":                     {},
	"unknown page type":         {0x7f},
	"truncated leaf header":     {pageLeaf},
	"truncated internal header": {pageInternal, 0},
	"slot offset past the page": leafPage(1, []uint32{0xffffffff}, nil),
	// The count overruns the slot directory.
	"header-only leaf, count 1":  leafPage(1, nil, nil),
	"leaf, count 2^32-1":         leafPage(0xffffffff, []uint32{17, 17}, []byte{1, 'k'}),
	"internal, count 3, 2 slots": {pageInternal, 0, 0, 0, 3, 0, 0, 0, 13, 0, 0, 0, 13},
	// Slots whose contents run off the page or off their own extent.
	"key length past the slot":      leafPage(1, []uint32{17}, []byte{9, 'k'}),
	"unterminated key varint":       leafPage(1, []uint32{17}, []byte{0x80, 0x80}),
	"slot starts after its end":     leafPage(2, []uint32{26, 21}, []byte{1, 'a', 0, 2, 0, 1, 'b', 0, 4, 0}),
	"internal slot without a child": {pageInternal, 0, 0, 0, 1, 0, 0, 0, 9, 1, 'k', 0, 0},
}

// walkPage drives every accessor of the page view over raw the way Get,
// Scan and LookupCursor do, probing with key, and hands each error to check.
// It reports whether any accessor failed.
func walkPage(raw, key []byte, check func(error)) (failed bool) {
	note := func(err error) {
		if err != nil {
			failed = true
			check(err)
		}
	}
	// Capacity is clipped so a slice expression past the page panics
	// instead of quietly reading a neighbour's bytes.
	p, err := viewPage(raw[:len(raw):len(raw)], 0)
	if note(err); err != nil {
		return true
	}
	env := metrics.NopEnv()
	for i := 0; i < p.n; i++ {
		k, rest, err := p.slot(i)
		note(err)
		if len(k)+len(rest) > len(raw) {
			check(fmt.Errorf("slot %d: %d+%d bytes from a %d-byte page", i, len(k), len(rest), len(raw)))
		}
		if p.typ == pageInternal {
			_, err = p.child(i)
		} else {
			_, _, _, err = p.found(env, i, k)
		}
		note(err)
	}
	idx, err := p.search(env, 0, p.n, key)
	note(err)
	_, err = p.holds(idx, key)
	note(err)
	if p.typ == pageLeaf {
		_, _, _, err = p.found(env, idx, key)
		note(err)
		r := &Reader{env: env, count: int64(p.n), numLeaves: 2}
		for _, last := range []int{0, p.n / 2, p.n} {
			c := &LookupCursor{r: r, stateful: true, leaf: p, lastPos: last}
			_, err = c.covers(key)
			note(err)
			_, err = c.exponentialSearch(key)
			note(err)
		}
	}
	return failed
}

// TestDecodePageRejectsCorrupt: every malformed page is refused with
// ErrCorrupt, never a panic and never an allocation sized by the page's
// own count field.
func TestDecodePageRejectsCorrupt(t *testing.T) {
	for name, raw := range corruptPages {
		failed := walkPage(raw, []byte("k"), func(err error) {
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: %v, want ErrCorrupt", name, err)
			}
		})
		if !failed {
			t.Errorf("%s: corrupt page accepted", name)
		}
	}
	if _, err := viewPage(nil, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("nil page: %v, want ErrCorrupt", err)
	}
}

// FuzzPageSearch feeds arbitrary bytes to the page view as a page: every
// accessor returns a value or a corruption error, never panics and never
// reads outside the page.
func FuzzPageSearch(f *testing.F) {
	for _, raw := range corruptPages {
		f.Add(raw, []byte("k"))
	}
	f.Add(leafPage(2, []uint32{21, 27}, []byte{1, 'a', 0, 2, 1, 'x', 1, 'b', 0, 4, 0}), []byte("b"))
	f.Add([]byte{pageInternal, 0, 0, 0, 2, 0, 0, 0, 13, 0, 0, 0, 19, 1, 'a', 0, 0, 0, 0, 1, 'm', 0, 0, 0, 1}, []byte("c"))
	f.Fuzz(func(t *testing.T, raw, key []byte) {
		walkPage(raw, key, func(err error) {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, kv.ErrCorrupt) {
				t.Errorf("unexpected error %v", err)
			}
		})
	})
}

// TestPageBoundaryFill packs entries that exactly straddle page capacity,
// guarding the builder's fits-in-page arithmetic.
func TestPageBoundaryFill(t *testing.T) {
	for _, pageSize := range []int{256, 512, 1024} {
		env := metrics.NopEnv()
		disk := storage.NewDisk(storage.ScaledHDD(pageSize))
		store := storage.NewStore(disk, 1<<20, env)
		b := NewBuilder(store)
		n := 500
		for i := 0; i < n; i++ {
			e := kv.Entry{Key: kv.EncodeUint64(uint64(i)), Value: make([]byte, i%60), TS: int64(i)}
			if err := b.Add(e.Key, kv.AppendPayload(nil, e)); err != nil {
				t.Fatalf("page %d entry %d: %v", pageSize, i, err)
			}
		}
		r, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if r.NumEntries() != int64(n) {
			t.Fatalf("page %d: %d entries", pageSize, r.NumEntries())
		}
		for i := 0; i < n; i++ {
			e, ord, found, err := get(r, kv.EncodeUint64(uint64(i)))
			if err != nil || !found || ord != int64(i) {
				t.Fatalf("page %d key %d: found=%v ord=%d err=%v", pageSize, i, found, ord, err)
			}
			if len(e.Value) != i%60 {
				t.Fatalf("page %d key %d: value len %d", pageSize, i, len(e.Value))
			}
		}
	}
}

// TestDeepTree forces several internal levels with a tiny page size.
func TestDeepTree(t *testing.T) {
	env := metrics.NopEnv()
	disk := storage.NewDisk(storage.ScaledHDD(256))
	store := storage.NewStore(disk, 1<<30, env)
	b := NewBuilder(store)
	const n = 20000
	for i := 0; i < n; i++ {
		e := kv.Entry{Key: kv.EncodeUint64(uint64(i)), TS: int64(i)}
		if err := b.Add(e.Key, kv.AppendPayload(nil, e)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []uint64{0, 1, n / 2, n - 2, n - 1} {
		if _, ord, found, err := get(r, kv.EncodeUint64(probe)); err != nil || !found || ord != int64(probe) {
			t.Fatalf("probe %d: found=%v ord=%d err=%v", probe, found, ord, err)
		}
	}
	if _, _, found, _ := get(r, kv.EncodeUint64(n)); found {
		t.Fatal("key past the end found")
	}
}

// corruptLeaf is a device that serves one page of every file with a broken
// header, as bit rot met mid-scan would look.
type corruptLeaf struct {
	storage.Device
	page int
}

func (d corruptLeaf) ReadPage(id storage.FileID, page int, dst []byte) ([]byte, error) {
	p, err := d.Device.ReadPage(id, page, dst)
	if err == nil && page == d.page {
		p[0] = 0xFF
	}
	return p, err
}

// TestCorruptLeafReleasesPins: a scan, a cursor and a point lookup that
// meet a corrupt leaf fail with ErrCorrupt and leave no frame pinned.
func TestCorruptLeafReleasesPins(t *testing.T) {
	const n, bad = 5000, 3
	store := storage.NewStore(corruptLeaf{storage.NewDisk(storage.ScaledHDD(1024)), bad}, 64*1024, metrics.NopEnv())
	r := buildTree(t, store, seqEntries(n))
	scan, err := r.NewScan(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, _, ok, err := scan.Next()
		if errors.Is(err, ErrCorrupt) {
			break
		}
		if err != nil || !ok {
			t.Fatalf("scan passed the corrupt leaf: ok=%v err=%v", ok, err)
		}
	}
	scan.Close()
	if pinned := store.Cache().Pinned(); pinned != 0 {
		t.Fatalf("%d frames pinned after the scan failed", pinned)
	}
	// Entry i lives in leaf i/perLeaf; probe every key until one routes to
	// the corrupt leaf, through a cursor and a point lookup.
	cur := r.NewLookupCursor(true)
	hit := false
	for i := uint64(0); i < n && !hit; i += 7 {
		if _, _, _, err := cur.Lookup(kv.EncodeUint64(i * 3)); errors.Is(err, ErrCorrupt) {
			hit = true
			if _, _, err := r.Get(kv.EncodeUint64(i*3), nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get of a key in the corrupt leaf: %v", err)
			}
		}
	}
	cur.Close()
	if !hit {
		t.Fatal("no lookup reached the corrupt leaf")
	}
	if pinned := store.Cache().Pinned(); pinned != 0 {
		t.Fatalf("%d frames pinned after failed lookups", pinned)
	}
}
