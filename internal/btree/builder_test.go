package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/storage/filedev"
)

// referencePages is the bulk loader as it was before the builder assembled
// leaves in place — every entry held as its own pair of slices, every page
// encoded into a fresh buffer — kept as the definition of the file format
// the builder must keep producing. It returns the pages in file order.
func referencePages(pageSize int, keys, payloads [][]byte) [][]byte {
	type route struct {
		firstKey []byte
		page     uint32
	}
	var (
		pages    [][]byte
		levels   [][]route
		curKeys  [][]byte
		curVals  [][]byte
		curBytes int
		count    int64
	)
	push := func(level int, r route) {
		for len(levels) <= level {
			levels = append(levels, nil)
		}
		levels[level] = append(levels[level], r)
	}
	flushLeaf := func() {
		if len(curKeys) == 0 {
			return
		}
		page := make([]byte, 0, pageSize)
		page = append(page, pageLeaf)
		page = binary.BigEndian.AppendUint32(page, uint32(len(curKeys)))
		page = binary.BigEndian.AppendUint64(page, uint64(count-int64(len(curKeys))))
		slotBase := len(page)
		page = append(page, make([]byte, 4*len(curKeys))...)
		for i := range curKeys {
			binary.BigEndian.PutUint32(page[slotBase+4*i:], uint32(len(page)))
			page = binary.AppendUvarint(page, uint64(len(curKeys[i])))
			page = append(page, curKeys[i]...)
			page = append(page, curVals[i]...)
		}
		pages = append(pages, page)
		push(0, route{firstKey: curKeys[0], page: uint32(len(pages) - 1)})
		curKeys, curVals, curBytes = nil, nil, 0
	}
	for i := range keys {
		need := entrySize(keys[i], payloads[i])
		if leafHeaderSize+4*(len(curKeys)+1)+curBytes+need > pageSize {
			flushLeaf()
		}
		curKeys = append(curKeys, keys[i])
		curVals = append(curVals, payloads[i])
		curBytes += need
		count++
	}
	flushLeaf()

	numLeaves := len(pages)
	rootPage, height := uint32(0), 0
	for level := 0; numLeaves > 1; level++ {
		routes := levels[level]
		if len(routes) == 1 {
			rootPage, height = routes[0].page, level
			break
		}
		for rest := routes; len(rest) > 0; {
			n, size := 0, internalHeaderSize
			for n < len(rest) {
				size += 4 + uvarintLen(uint64(len(rest[n].firstKey))) + len(rest[n].firstKey) + 4
				if size > pageSize {
					break
				}
				n++
			}
			page := make([]byte, 0, pageSize)
			page = append(page, pageInternal)
			page = binary.BigEndian.AppendUint32(page, uint32(n))
			slotBase := len(page)
			page = append(page, make([]byte, 4*n)...)
			for i, r := range rest[:n] {
				binary.BigEndian.PutUint32(page[slotBase+4*i:], uint32(len(page)))
				page = binary.AppendUvarint(page, uint64(len(r.firstKey)))
				page = append(page, r.firstKey...)
				page = binary.BigEndian.AppendUint32(page, r.page)
			}
			pages = append(pages, page)
			push(level+1, route{firstKey: rest[0].firstKey, page: uint32(len(pages) - 1)})
			rest = rest[n:]
		}
	}
	meta := []byte{pageMeta}
	meta = binary.BigEndian.AppendUint64(meta, uint64(count))
	meta = binary.BigEndian.AppendUint32(meta, rootPage)
	meta = binary.BigEndian.AppendUint16(meta, uint16(height))
	meta = binary.BigEndian.AppendUint32(meta, uint32(numLeaves))
	return append(pages, meta)
}

// checkPagesMatchReference compares every page of the tree the builder
// wrote from the entries with the reference encoder's.
func checkPagesMatchReference(t *testing.T, store *storage.Store, r *Reader, keys, payloads [][]byte) {
	t.Helper()
	want := referencePages(store.PageSize(), keys, payloads)
	if n, err := store.NumPages(r.FileID()); err != nil || n != len(want) {
		t.Fatalf("%d pages (%v), reference has %d", n, err, len(want))
	}
	for i := range want {
		got, err := store.Device().ReadPage(r.FileID(), i, nil)
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("page %d of %d differs from the reference encoding (%d vs %d bytes, err %v)", i, len(want), len(got), len(want[i]), err)
		}
	}
}

// maxEntry is the largest key+payload an entry may carry on a page: Add
// refuses anything bigger with ErrEntryTooLarge.
func maxEntry(pageSize, keyLen int) int {
	return pageSize - leafHeaderSize - 4 - uvarintLen(uint64(keyLen))
}

// TestBuilderPagesMatchReference: same input, same bytes on every page as
// the loader that copied each entry twice — over page sizes from 256 bytes
// to 128 KiB, random key and payload lengths, the empty key, and entries
// large enough that a leaf holds exactly one.
func TestBuilderPagesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, pageSize := range []int{256, 300, 512, 4 << 10, 32 << 10, 128 << 10} {
		for _, shape := range []string{"small", "mixed", "one-per-page"} {
			n := 1 + rng.Intn(400)
			if shape == "one-per-page" {
				n = 1 + rng.Intn(12)
			}
			seen := map[string]bool{"": true}
			keys := [][]byte{{}} // the empty key sorts first
			for len(keys) < n {
				k := make([]byte, 1+rng.Intn(min(40, pageSize/8)))
				rng.Read(k)
				if !seen[string(k)] {
					seen[string(k)] = true
					keys = append(keys, k)
				}
			}
			slices.SortFunc(keys, bytes.Compare)
			payloads := make([][]byte, len(keys))
			for i, k := range keys {
				room := maxEntry(pageSize, len(k)) - len(k)
				var size int
				switch shape {
				case "small":
					size = rng.Intn(min(room, 24) + 1)
				case "mixed":
					size = rng.Intn(room + 1)
				default: // more than half a page each, up to the exact maximum
					size = room - rng.Intn(room/2-leafHeaderSize)
					if i%3 == 0 {
						size = room
					}
				}
				payloads[i] = make([]byte, size)
				rng.Read(payloads[i])
			}
			t.Run(fmt.Sprintf("%d/%s", pageSize, shape), func(t *testing.T) {
				store := newTestStore(t, pageSize)
				b := NewBuilder(store)
				for i := range keys {
					if err := b.Add(keys[i], payloads[i]); err != nil {
						t.Fatalf("Add #%d (%d-byte key, %d-byte payload): %v", i, len(keys[i]), len(payloads[i]), err)
					}
				}
				r, err := b.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if r.NumEntries() != int64(len(keys)) {
					t.Fatalf("%d entries, want %d", r.NumEntries(), len(keys))
				}
				checkPagesMatchReference(t, store, r, keys, payloads)
			})
		}
	}
	// No entries at all: one meta page.
	store := newTestStore(t, 256)
	r, err := NewBuilder(store).Finish()
	if err != nil {
		t.Fatal(err)
	}
	checkPagesMatchReference(t, store, r, nil, nil)
}

// TestBuilderRejectsDuplicateEmptyKey: the order check must hold for the
// empty key too, which is indistinguishable from "no key yet" as a slice.
func TestBuilderRejectsDuplicateEmptyKey(t *testing.T) {
	b := NewBuilder(newTestStore(t, 1024))
	if err := b.Add([]byte{}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]byte{}, []byte{2}); !errors.Is(err, ErrKeyOrder) {
		t.Fatalf("second Add of the empty key: %v, want ErrKeyOrder", err)
	}
	if err := b.Add(nil, []byte{3}); !errors.Is(err, ErrKeyOrder) {
		t.Fatalf("Add of a nil key after the empty key: %v, want ErrKeyOrder", err)
	}
	r, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if r.NumEntries() != 1 {
		t.Fatalf("%d entries, want 1", r.NumEntries())
	}
}

// TestAddAllocatesNothing guards the in-place leaf: once the builder's
// buffers have held one leaf, adding an entry to the next copies its bytes
// into them and allocates nothing. (Closing a leaf appends its first key to
// the builder's route-key buffer; TestBuildAllocationsPerLevel bounds what
// a whole build allocates.)
func TestAddAllocatesNothing(t *testing.T) {
	const pageSize = 32 << 10
	store := newTestStore(t, pageSize)
	b := NewBuilder(store)
	payload := kv.AppendPayload(nil, kv.Entry{Value: make([]byte, 100), TS: 1})
	var key [8]byte
	next := uint64(0)
	add := func() {
		binary.BigEndian.PutUint64(key[:], next)
		next++
		if err := b.Add(key[:], payload); err != nil {
			t.Fatal(err)
		}
	}
	perLeaf := 0
	for len(b.levels) == 0 { // until the first leaf is written
		add()
		perLeaf++
	}
	const runs = 100
	if perLeaf < 2*(runs+1) {
		t.Fatalf("only %d entries per leaf: the measured Adds would not stay inside one", perLeaf)
	}
	if allocs := testing.AllocsPerRun(runs, add); allocs != 0 {
		t.Errorf("Add inside a leaf allocates %v times, want 0", allocs)
	}
	if len(b.levels[0]) != 1 {
		t.Fatalf("%d leaves written, want the measured Adds inside the second", len(b.levels[0]))
	}
	b.Abort()
}

// TestBuildAllocationsPerLevel: a warm bulk load allocates nothing per
// leaf or per level. The builder and its buffers come back from the free
// list, and the file device appends each page into a recycled run, so a
// build of over 1 000 leaves stays under buildAllocCeiling objects — the
// new file with the growth of its page table, and the reader Finish opens
// (22 measured) — where one object per leaf would exceed it at once.
func TestBuildAllocationsPerLevel(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not checked under -race")
	}
	const pageSize, entries, minLeaves = 4 << 10, 40_000, 1000
	const buildAllocCeiling = 30
	dev, err := filedev.Open(t.TempDir(), storage.ScaledHDD(pageSize))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := dev.Close(); err != nil {
			t.Error(err)
		}
	}()
	store := storage.NewStore(dev, 64*pageSize, metrics.NopEnv())
	payload := kv.AppendPayload(nil, kv.Entry{Value: make([]byte, 100), TS: 1})
	var key [8]byte
	leaves := 0
	build := func() {
		b := NewBuilder(store)
		for i := range uint64(entries) {
			binary.BigEndian.PutUint64(key[:], i)
			if err := b.Add(key[:], payload); err != nil {
				t.Fatal(err)
			}
		}
		leaves = len(b.levels[0])
		if _, err := b.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1, build)
	if leaves < minLeaves {
		t.Fatalf("%d leaves, want at least %d", leaves, minLeaves)
	}
	t.Logf("%d leaves, %v objects", leaves, allocs)
	if allocs > buildAllocCeiling {
		t.Errorf("a build of %d leaves allocated %v objects, want at most %d", leaves, allocs, buildAllocCeiling)
	}
}

// drainFreeBuilders empties the free list, so the next NewBuilder is fresh.
func drainFreeBuilders() {
	freeBuilders.Lock()
	clear(freeBuilders.list)
	freeBuilders.list = freeBuilders.list[:0]
	freeBuilders.Unlock()
}

// TestRecycledBuilderMatchesFresh: a builder back from the free list writes
// the same pages as a fresh one. Its first build has long keys over three
// levels and the second short keys, so a route key, a last key or a level's
// routes left over from the first build would show in the second's pages.
func TestRecycledBuilderMatchesFresh(t *testing.T) {
	const pageSize = 512
	entries := func(n, keyLen int) (keys, payloads [][]byte) {
		for i := range n {
			k := make([]byte, keyLen)
			binary.BigEndian.PutUint32(k, uint32(i))
			for j := 4; j < keyLen; j++ {
				k[j] = 0xff // bytes a shorter key would not overwrite
			}
			keys = append(keys, k)
			payloads = append(payloads, kv.AppendPayload(nil, kv.Entry{Value: []byte{byte(i)}, TS: int64(i)}))
		}
		return keys, payloads
	}
	longKeys, longPayloads := entries(3000, 120)
	shortKeys, shortPayloads := entries(5000, 4)
	store := newTestStore(t, pageSize)
	build := func(keys, payloads [][]byte) (*Builder, *Reader) {
		b := NewBuilder(store)
		for i := range keys {
			if err := b.Add(keys[i], payloads[i]); err != nil {
				t.Fatal(err)
			}
		}
		r, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return b, r
	}
	pages := func(r *Reader) [][]byte {
		n, err := store.NumPages(r.FileID())
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, n)
		for i := range out {
			if out[i], err = store.Device().ReadPage(r.FileID(), i, nil); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	drainFreeBuilders()
	first, long := build(longKeys, longPayloads)
	if long.height < 2 {
		t.Fatalf("the long-key tree has height %d, want at least 2", long.height)
	}
	recycled, got := build(shortKeys, shortPayloads)
	if recycled != first {
		t.Fatal("the second build did not reuse the first build's builder")
	}
	drainFreeBuilders()
	fresh, want := build(shortKeys, shortPayloads)
	if fresh == first {
		t.Fatal("the fresh build reused a builder")
	}
	if gp, wp := pages(got), pages(want); !slices.EqualFunc(gp, wp, bytes.Equal) {
		t.Fatalf("the recycled builder's %d pages differ from the fresh builder's %d", len(gp), len(wp))
	}
	checkPagesMatchReference(t, store, got, shortKeys, shortPayloads)
}

// fuzzEntries decodes arbitrary bytes into entries: a sequence of
// (keyLen byte, valueLen uint16, key, value), cut short where the input
// ends. Later duplicates of a key are dropped; the result is key-sorted.
func fuzzEntries(data []byte) []kv.Entry {
	var out []kv.Entry
	seen := map[string]bool{}
	for len(data) >= 3 {
		klen, vlen := int(data[0]), int(binary.BigEndian.Uint16(data[1:]))
		data = data[3:]
		klen = min(klen, len(data))
		vlen = min(vlen, len(data)-klen)
		key, value := data[:klen], data[klen:klen+vlen]
		data = data[klen+vlen:]
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, kv.Entry{Key: key, Value: value, TS: int64(len(out)), Anti: vlen%2 == 1})
		}
	}
	slices.SortFunc(out, func(a, b kv.Entry) int { return bytes.Compare(a.Key, b.Key) })
	return out
}

// fuzzInput is fuzzEntries' inverse, for writing seeds.
func fuzzInput(entries ...kv.Entry) []byte {
	var out []byte
	for _, e := range entries {
		out = append(out, byte(len(e.Key)))
		out = binary.BigEndian.AppendUint16(out, uint16(len(e.Value)))
		out = append(out, e.Key...)
		out = append(out, e.Value...)
	}
	return out
}

var fuzzPageSizes = [...]int{256, 512, 1024, 4096}

// FuzzBuilderRoundTrip: whatever sorted, distinct entries the input decodes
// to, the builder either refuses an entry as too large for the page or
// stores it; the pages equal the reference encoder's and a scan returns the
// stored entries. Every input after the first builds with the builder the
// previous one finished, so whatever an input leaves in it is in the next
// input's way.
func FuzzBuilderRoundTrip(f *testing.F) {
	var last *Builder
	f.Add(fuzzInput(kv.Entry{}, kv.Entry{Key: []byte("a"), Value: []byte("1")}), uint8(0)) // the empty key
	// The largest entry a 256-byte page takes (1 flag + 1 TS + 2 length
	// bytes of payload framing), and one byte more.
	f.Add(fuzzInput(kv.Entry{Key: []byte("k"), Value: make([]byte, maxEntry(256, 1)-1-4)}), uint8(0))
	f.Add(fuzzInput(kv.Entry{Key: []byte("k"), Value: make([]byte, maxEntry(256, 1)-1-4+1)}), uint8(0))
	// Page-exact fill: 256 = 13 header + 9 × (4 slot + 1 keyLen + 8 key +
	// 14 payload), so the tenth entry opens a second leaf.
	var exact []kv.Entry
	for i := 0; i < 10; i++ {
		exact = append(exact, kv.Entry{Key: kv.EncodeUint64(uint64(i)), Value: make([]byte, 11)})
	}
	f.Add(fuzzInput(exact...), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, sizeSel uint8) {
		pageSize := fuzzPageSizes[int(sizeSel)%len(fuzzPageSizes)]
		store := newTestStore(t, pageSize)
		b := NewBuilder(store)
		if last != nil && b != last {
			t.Fatal("NewBuilder did not reuse the builder the previous input finished")
		}
		last = nil // until this input's Finish gives b back
		var stored []kv.Entry
		var keys, payloads [][]byte
		for _, e := range fuzzEntries(data) {
			payload := kv.AppendPayload(nil, e)
			err := b.Add(e.Key, payload)
			if tooLarge := len(e.Key)+len(payload) > maxEntry(pageSize, len(e.Key)); tooLarge {
				if !errors.Is(err, ErrEntryTooLarge) {
					t.Fatalf("Add of an oversized entry: %v, want ErrEntryTooLarge", err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("Add(%q): %v", e.Key, err)
			}
			stored = append(stored, e)
			keys, payloads = append(keys, e.Key), append(payloads, payload)
		}
		r, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		last = b
		checkPagesMatchReference(t, store, r, keys, payloads)
		scan, err := r.NewScan(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range stored {
			e, ord, ok, err := scan.Next()
			if err != nil || !ok {
				t.Fatalf("scan stopped at %d of %d: ok=%v err=%v", i, len(stored), ok, err)
			}
			if ord != int64(i) || !bytes.Equal(e.Key, w.Key) || !bytes.Equal(e.Value, w.Value) || e.TS != w.TS || e.Anti != w.Anti {
				t.Fatalf("entry %d: got %v (ordinal %d), want %v", i, e, ord, w)
			}
		}
		if _, _, ok, _ := scan.Next(); ok {
			t.Fatal("scan returned more entries than were stored")
		}
	})
}
