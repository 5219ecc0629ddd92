package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/storage"
)

func newTestStore(t testing.TB, pageSize int) *storage.Store {
	t.Helper()
	env := metrics.NopEnv()
	disk := storage.NewDisk(storage.ScaledHDD(pageSize))
	return storage.NewStore(disk, 1<<30, env)
}

func buildTree(t testing.TB, store *storage.Store, entries []kv.Entry) *Reader {
	t.Helper()
	b := NewBuilder(store)
	for _, e := range entries {
		if err := b.Add(e.Key, kv.AppendPayload(nil, e)); err != nil {
			t.Fatalf("Add(%q): %v", e.Key, err)
		}
	}
	r, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return r
}

// get is Reader.Get with the entry copied out of its pinned page.
func get(r *Reader, key []byte) (kv.Entry, int64, bool, error) {
	var e kv.Entry
	ord, found, err := r.Get(key, func(v kv.Entry, _ int64) { e = v.Clone() })
	return e, ord, found, err
}

func seqEntries(n int) []kv.Entry {
	entries := make([]kv.Entry, n)
	for i := range entries {
		entries[i] = kv.Entry{
			Key:   kv.EncodeUint64(uint64(i) * 3),
			Value: []byte(fmt.Sprintf("value-%06d", i)),
			TS:    int64(i),
		}
	}
	return entries
}

func TestGetAllKeys(t *testing.T) {
	store := newTestStore(t, 1024)
	entries := seqEntries(5000)
	r := buildTree(t, store, entries)
	if r.NumEntries() != 5000 {
		t.Fatalf("NumEntries = %d, want 5000", r.NumEntries())
	}
	for i, want := range entries {
		e, ord, found, err := get(r, want.Key)
		if err != nil || !found {
			t.Fatalf("Get key %d: found=%v err=%v", i, found, err)
		}
		if !bytes.Equal(e.Value, want.Value) || e.TS != want.TS {
			t.Fatalf("key %d: got %v want %v", i, e, want)
		}
		if ord != int64(i) {
			t.Fatalf("key %d: ordinal %d", i, ord)
		}
	}
}

func TestGetAbsentKeys(t *testing.T) {
	store := newTestStore(t, 1024)
	r := buildTree(t, store, seqEntries(1000))
	for i := 0; i < 1000; i++ {
		// keys are multiples of 3; probe the gaps
		if _, _, found, _ := get(r, kv.EncodeUint64(uint64(i)*3+1)); found {
			t.Fatalf("found absent key %d", i)
		}
	}
	if _, _, found, _ := get(r, kv.EncodeUint64(1<<62)); found {
		t.Fatal("found key beyond the last entry")
	}
}

func TestEmptyTree(t *testing.T) {
	store := newTestStore(t, 1024)
	r := buildTree(t, store, nil)
	if r.NumEntries() != 0 {
		t.Fatalf("NumEntries = %d", r.NumEntries())
	}
	if _, _, found, err := get(r, []byte("x")); found || err != nil {
		t.Fatalf("Get on empty: found=%v err=%v", found, err)
	}
	s, err := r.NewScan(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := s.Next(); ok {
		t.Fatal("scan of empty tree returned an entry")
	}
}

func TestBuilderRejectsOutOfOrder(t *testing.T) {
	store := newTestStore(t, 1024)
	b := NewBuilder(store)
	if err := b.Add([]byte("b"), []byte{0}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]byte("a"), []byte{0}); err == nil {
		t.Error("out-of-order Add should fail")
	}
	if err := b.Add([]byte("b"), []byte{0}); err == nil {
		t.Error("duplicate Add should fail")
	}
	b.Abort()
}

func TestBuilderRejectsHugeEntry(t *testing.T) {
	store := newTestStore(t, 512)
	b := NewBuilder(store)
	if err := b.Add([]byte("k"), make([]byte, 4096)); err == nil {
		t.Error("oversized entry should fail")
	}
	b.Abort()
}

func TestScanFullAndRanges(t *testing.T) {
	store := newTestStore(t, 1024)
	entries := seqEntries(3000)
	r := buildTree(t, store, entries)

	// full scan
	s, err := r.NewScan(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		e, ord, ok, err := s.Next()
		if err != nil || !ok {
			t.Fatalf("scan stopped at %d: %v", i, err)
		}
		if !bytes.Equal(e.Key, entries[i].Key) || ord != int64(i) {
			t.Fatalf("scan entry %d mismatch", i)
		}
	}
	if _, _, ok, _ := s.Next(); ok {
		t.Fatal("scan overran")
	}

	// bounded scan: [lo, hi)
	lo, hi := kv.EncodeUint64(300), kv.EncodeUint64(600)
	s2, err := r.NewScan(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		e, _, ok, err := s2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		v := kv.DecodeUint64(e.Key)
		if v < 300 || v >= 600 {
			t.Fatalf("scan leaked key %d", v)
		}
		count++
	}
	want := 0
	for i := 0; i < 3000; i++ {
		if u := uint64(i) * 3; u >= 300 && u < 600 {
			want++
		}
	}
	if count != want {
		t.Fatalf("bounded scan returned %d entries, want %d", count, want)
	}

	// lo between keys
	s3, _ := r.NewScan(kv.EncodeUint64(301), nil)
	e, _, ok, _ := s3.Next()
	if !ok || kv.DecodeUint64(e.Key) != 303 {
		t.Fatalf("scan from gap: got %v", e)
	}
}

func TestLookupCursorStatefulMatchesStateless(t *testing.T) {
	store := newTestStore(t, 1024)
	entries := seqEntries(4000)
	r := buildTree(t, store, entries)

	rng := rand.New(rand.NewSource(42))
	var probes []uint64
	for i := 0; i < 2000; i++ {
		probes = append(probes, uint64(rng.Intn(13000)))
	}
	sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })

	stateful := r.NewLookupCursor(true)
	stateless := r.NewLookupCursor(false)
	for _, p := range probes {
		key := kv.EncodeUint64(p)
		e1, o1, f1, err1 := stateful.Lookup(key)
		e2, o2, f2, err2 := stateless.Lookup(key)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if f1 != f2 || o1 != o2 || !bytes.Equal(e1.Value, e2.Value) {
			t.Fatalf("probe %d: stateful (%v,%d,%v) != stateless (%v,%d,%v)",
				p, e1, o1, f1, e2, o2, f2)
		}
		if f1 != (p%3 == 0 && p < 12000) {
			t.Fatalf("probe %d: found=%v", p, f1)
		}
	}
}

func TestLookupCursorUnsortedProbes(t *testing.T) {
	// The stateful cursor must stay correct even when keys arrive out of
	// order (it only optimizes, never assumes, monotonicity).
	store := newTestStore(t, 1024)
	r := buildTree(t, store, seqEntries(2000))
	c := r.NewLookupCursor(true)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		p := uint64(rng.Intn(6500))
		_, _, found, err := c.Lookup(kv.EncodeUint64(p))
		if err != nil {
			t.Fatal(err)
		}
		if found != (p%3 == 0 && p < 6000) {
			t.Fatalf("probe %d: found=%v", p, found)
		}
	}
}

func TestStatefulCursorSavesComparisons(t *testing.T) {
	env := metrics.NopEnv()
	disk := storage.NewDisk(storage.ScaledHDD(4096))
	store := storage.NewStore(disk, 1<<30, env)
	r := buildTree(t, store, seqEntries(20000))

	run := func(stateful bool) int64 {
		env.Counters.Reset()
		c := r.NewLookupCursor(stateful)
		for i := 0; i < 20000; i++ {
			c.Lookup(kv.EncodeUint64(uint64(i) * 3))
		}
		return env.Counters.KeyComparisons.Load()
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Errorf("stateful lookups used %d comparisons, stateless %d; expected savings", with, without)
	}
}

func TestVariableKeySizes(t *testing.T) {
	store := newTestStore(t, 2048)
	var entries []kv.Entry
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("%04d-%s", i, bytes.Repeat([]byte{'k'}, i%50)))
		entries = append(entries, kv.Entry{Key: key, Value: bytes.Repeat([]byte{'v'}, i%100), TS: int64(i)})
	}
	r := buildTree(t, store, entries)
	for i, want := range entries {
		e, _, found, err := get(r, want.Key)
		if err != nil || !found || !bytes.Equal(e.Value, want.Value) {
			t.Fatalf("entry %d: found=%v err=%v", i, found, err)
		}
	}
}

func TestOrdinalsAreStableRanks(t *testing.T) {
	store := newTestStore(t, 1024)
	entries := seqEntries(2500)
	r := buildTree(t, store, entries)
	s, _ := r.NewScan(nil, nil)
	var i int64
	for {
		_, ord, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if ord != i {
			t.Fatalf("scan ordinal %d at rank %d", ord, i)
		}
		i++
	}
}

// failingAppends is a device whose k-th page append, counted from 1, and
// every later one fail (k = 0 never fails).
type failingAppends struct {
	storage.Device
	k, n int
}

func (d *failingAppends) AppendPage(id storage.FileID, data []byte) (int, error) {
	d.n++
	if d.k > 0 && d.n >= d.k {
		return 0, fmt.Errorf("append %d: injected failure", d.n)
	}
	return d.Device.AppendPage(id, data)
}

// TestAbortDeletesFile: an aborted build leaves no file, and neither does a
// Finish whose append of the last leaf, an internal page or the meta page
// fails.
func TestAbortDeletesFile(t *testing.T) {
	store := newTestStore(t, 1024)
	b := NewBuilder(store)
	b.Add([]byte("a"), []byte{1})
	id := b.FileID()
	b.Abort()
	if _, err := store.NumPages(id); err == nil {
		t.Error("aborted builder's file should be deleted")
	}

	entries := seqEntries(300)
	build := func(k int) (dev *failingAppends, addAppends int, err error) {
		dev = &failingAppends{Device: storage.NewDisk(storage.ScaledHDD(256)), k: k}
		b := NewBuilder(storage.NewStore(dev, 1<<20, metrics.NopEnv()))
		for _, e := range entries {
			if err := b.Add(e.Key, kv.AppendPayload(nil, e)); err != nil {
				t.Fatalf("k=%d: Add: %v", k, err)
			}
		}
		addAppends = dev.n
		_, err = b.Finish()
		b.Abort()
		return dev, addAppends, err
	}
	clean, addAppends, err := build(0)
	if err != nil {
		t.Fatal(err)
	}
	if clean.n-addAppends < 3 {
		t.Fatalf("Finish wrote %d pages; want the last leaf, internal pages and the meta page", clean.n-addAppends)
	}
	for k := addAppends + 1; k <= clean.n; k++ {
		dev, _, err := build(k)
		if err == nil {
			t.Fatalf("Finish with append %d failing succeeded", k)
		}
		if files := dev.List(); len(files) != 0 {
			t.Errorf("Finish with append %d of %d failing left files %v", k, clean.n, files)
		}
	}
}

// TestRandomizedAgainstModel builds random trees — down to a 256-byte page,
// so several internal levels — and checks that the in-place page search
// (Get), the stateful cursor and the scan all agree with a linear scan of
// the sorted input on found/absent, ordinal and value.
func TestRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		store := newTestStore(t, 256<<rng.Intn(4))
		n := rng.Intn(3000)
		seen := make(map[string]bool, n)
		var keys []string
		for i := 0; i < n; i++ {
			// Variable-length keys: slots are not a fixed stride apart.
			k := fmt.Sprintf("key-%08d%s", rng.Intn(100000), "xxxxxxxx"[:rng.Intn(9)])
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var entries []kv.Entry
		for i, k := range keys {
			entries = append(entries, kv.Entry{Key: []byte(k), Value: []byte(fmt.Sprintf("val-%d", rng.Int63())), TS: int64(i)})
		}
		r := buildTree(t, store, entries)
		// lowerBound is the reference: the first position whose key >= k.
		lowerBound := func(k string) int {
			for i := range keys {
				if keys[i] >= k {
					return i
				}
			}
			return len(keys)
		}
		check := func(what, k string, e kv.Entry, ord int64, found bool, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("trial %d %s(%s): %v", trial, what, k, err)
			}
			i := lowerBound(k)
			want := i < len(keys) && keys[i] == k
			if found != want {
				t.Fatalf("trial %d %s(%s): found=%v want %v", trial, what, k, found, want)
			}
			if found && (ord != int64(i) || !bytes.Equal(e.Value, entries[i].Value) || e.TS != entries[i].TS) {
				t.Fatalf("trial %d %s(%s): got %v at %d, want %v at %d", trial, what, k, e, ord, entries[i], i)
			}
		}
		probes := make([]string, 200)
		for i := range probes {
			probes[i] = fmt.Sprintf("key-%08d", rng.Intn(100000))
			if len(keys) > 0 && i%2 == 0 {
				probes[i] = keys[rng.Intn(len(keys))]
			}
		}
		unsorted := r.NewLookupCursor(true)
		for _, k := range probes {
			e, ord, found, err := get(r, []byte(k))
			check("Get", k, e, ord, found, err)
			e, ord, found, err = unsorted.Lookup([]byte(k))
			check("unsorted cursor", k, e, ord, found, err)
		}
		sort.Strings(probes)
		cur := r.NewLookupCursor(true)
		for _, k := range probes {
			e, ord, found, err := cur.Lookup([]byte(k))
			check("cursor", k, e, ord, found, err)
		}
		for i := 0; i < 20; i++ {
			lo, hi := probes[rng.Intn(len(probes))], probes[rng.Intn(len(probes))]
			if lo > hi {
				lo, hi = hi, lo
			}
			scan, err := r.NewScan([]byte(lo), []byte(hi))
			if err != nil {
				t.Fatal(err)
			}
			for at := lowerBound(lo); ; at++ {
				e, ord, ok, err := scan.Next()
				if err != nil {
					t.Fatal(err)
				}
				if end := lowerBound(hi); !ok {
					if at != end {
						t.Fatalf("trial %d scan [%s,%s): ended at %d, want %d", trial, lo, hi, at, end)
					}
					break
				}
				if ord != int64(at) || string(e.Key) != keys[at] || !bytes.Equal(e.Value, entries[at].Value) {
					t.Fatalf("trial %d scan [%s,%s): got %v at %d, want %v at %d", trial, lo, hi, e, ord, entries[at], at)
				}
			}
		}
	}
}

// TestSearchAllocatesNothing guards the in-place page search: on cached
// pages a point lookup, a cursor lookup (descending or inside its leaf) and
// a scan step parse the slots they compare and allocate nothing.
func TestSearchAllocatesNothing(t *testing.T) {
	const n = 20000
	r := buildTree(t, newTestStore(t, 1024), seqEntries(n))
	scan, err := r.NewScan(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for { // bring every leaf into the cache
		if _, _, ok, err := scan.Next(); err != nil || !ok {
			break
		}
	}
	var probe [8]byte
	i := 0
	guard := func(what string, step int, fn func(k []byte) (bool, error)) {
		t.Helper()
		allocs := testing.AllocsPerRun(2000, func() {
			binary.BigEndian.PutUint64(probe[:], uint64(i%n)*3)
			i += step
			if found, err := fn(probe[:]); err != nil || !found {
				t.Fatalf("%s(%d): found=%v err=%v", what, i, found, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %v times per call, want 0", what, allocs)
		}
	}
	guard("Reader.Get", 7919, func(k []byte) (bool, error) {
		_, found, err := r.Get(k, func(kv.Entry, int64) {})
		return found, err
	})
	for _, stateful := range []bool{true, false} {
		cur := r.NewLookupCursor(stateful)
		// Step 1 stays inside a leaf most of the time; 7919 leaves it every time.
		for _, step := range []int{1, 7919} {
			guard(fmt.Sprintf("LookupCursor(stateful=%v).Lookup", stateful), step, func(k []byte) (bool, error) {
				_, _, found, err := cur.Lookup(k)
				return found, err
			})
		}
	}
	scan, err = r.NewScan(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(n/2, func() {
		if _, _, ok, err := scan.Next(); err != nil || !ok {
			t.Fatalf("Scan.Next: ok=%v err=%v", ok, err)
		}
	}); allocs != 0 {
		t.Errorf("Scan.Next allocates %v times per entry, want 0", allocs)
	}
}

// TestColdLookupOnFullCacheAllocatesNothing: with the buffer cache full, a
// lookup whose leaf is not cached reads it into the frame the eviction it
// causes frees, so a cold LookupCursor.Lookup allocates nothing — neither a
// page buffer nor a cache entry.
func TestColdLookupOnFullCacheAllocatesNothing(t *testing.T) {
	const n, pageSize, frames = 20000, 1024, 64
	env := metrics.NewEnv()
	store := storage.NewStore(storage.NewDisk(storage.ScaledHDD(pageSize)), frames*pageSize, env)
	r := buildTree(t, store, seqEntries(n))
	cur := r.NewLookupCursor(false)
	defer cur.Close()
	var probe [8]byte
	i := 0
	lookup := func() {
		// A different leaf each time, away from the tree's right edge, whose
		// part-filled pages would each move to a frame of a smaller class.
		binary.BigEndian.PutUint64(probe[:], uint64(i*7919%(n-1000))*3)
		i++
		if _, _, found, err := cur.Lookup(probe[:]); err != nil || !found {
			t.Fatalf("Lookup #%d: found=%v err=%v", i, found, err)
		}
	}
	for range 4 * frames { // fill the cache; the internal pages stay hot
		lookup()
	}
	before := env.Counters.Snapshot()
	if allocs := testing.AllocsPerRun(500, lookup); allocs != 0 {
		t.Fatalf("a cold lookup on a full cache allocates %v times, want 0", allocs)
	}
	d := env.Counters.Snapshot().Sub(before)
	if d.CacheMisses < 400 || d.FrameReuses != d.CacheMisses || d.FrameAllocs != 0 {
		t.Fatalf("misses/reuses/allocs = %d/%d/%d over 501 lookups: the lookups were not cold", d.CacheMisses, d.FrameReuses, d.FrameAllocs)
	}
}
