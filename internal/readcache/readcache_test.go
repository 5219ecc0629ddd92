package readcache

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestHitMissNegative(t *testing.T) {
	c := New(Options{Bytes: 1 << 20, Segments: 4})
	k := []byte("pk-1")

	if _, out, tok := c.Get(k); out != Miss {
		t.Fatalf("fresh Get = %v, want Miss", out)
	} else {
		c.Put(k, []byte("rec"), tok)
	}
	v, out, _ := c.Get(k)
	if out != Hit || string(v) != "rec" {
		t.Fatalf("Get after Put = %v %q, want Hit \"rec\"", out, v)
	}

	absent := []byte("pk-absent")
	_, out, tok := c.Get(absent)
	if out != Miss {
		t.Fatalf("absent Get = %v, want Miss", out)
	}
	c.PutNegative(absent, tok)
	if _, out, _ := c.Get(absent); out != NegativeHit {
		t.Fatalf("Get after PutNegative = %v, want NegativeHit", out)
	}

	cs := c.Counters()
	if cs.ReadCacheHits != 1 || cs.ReadCacheMisses != 2 || cs.ReadCacheNegHits != 1 {
		t.Fatalf("counters = %+v", cs)
	}
}

// TestPutCopiesWhatItKeeps: an accepted fill owns a right-sized copy — it
// neither aliases nor pins the buffer the value was cut from — and a fill
// the version gate discards allocates nothing.
func TestPutCopiesWhatItKeeps(t *testing.T) {
	c := New(Options{Bytes: 1 << 20, Segments: 1})
	page := make([]byte, 128<<10)
	copy(page[4096:], "record")
	k := []byte("pk")
	_, _, tok := c.Get(k)
	c.Put(k, page[4096:4102], tok)
	copy(page[4096:], "XXXXXX") // the page is the caller's again
	v, out, _ := c.Get(k)
	if out != Hit || string(v) != "record" || cap(v) != len(v) {
		t.Fatalf("Get = %v %q (cap %d), want Hit \"record\" with cap == len", out, v, cap(v))
	}

	_, _, stale := c.Get([]byte("other"))
	c.Invalidate([]byte("third")) // same segment: the fill below is stale
	if n := testing.AllocsPerRun(100, func() { c.Put([]byte("other"), page[:512], stale) }); n != 0 {
		t.Fatalf("a discarded fill allocates %.0f times, want 0", n)
	}
}

func TestInvalidateRemovesBothKinds(t *testing.T) {
	c := New(Options{Bytes: 1 << 20, Segments: 1})
	pos, neg := []byte("pos"), []byte("neg")
	_, _, tok := c.Get(pos)
	c.Put(pos, []byte("v"), tok)
	_, _, tok = c.Get(neg)
	c.PutNegative(neg, tok)

	c.Invalidate(pos)
	c.Invalidate(neg)
	if _, out, _ := c.Get(pos); out != Miss {
		t.Fatalf("positive entry survived Invalidate: %v", out)
	}
	if _, out, _ := c.Get(neg); out != Miss {
		t.Fatalf("negative entry survived Invalidate: %v", out)
	}
	if got := c.Counters().ReadCacheInvalidations; got != 2 {
		t.Fatalf("invalidations = %d, want 2", got)
	}
}

// TestStaleFillDropped is the lookaside race, pinned: a reader's token
// predating an invalidation must not install its (stale) value.
func TestStaleFillDropped(t *testing.T) {
	c := New(Options{Bytes: 1 << 20, Segments: 1})
	k := []byte("k")
	_, _, tok := c.Get(k) // reader misses, goes to the engine...
	c.Invalidate(k)       // ...writer mutates k and invalidates...
	c.Put(k, []byte("stale"), tok)
	if _, out, _ := c.Get(k); out != Miss {
		t.Fatalf("stale fill was installed (out=%v)", out)
	}

	// Same-segment invalidations of a *different* key also gate the fill:
	// the version is per segment, which over-drops but never under-drops.
	_, _, tok = c.Get(k)
	c.Invalidate([]byte("other"))
	c.Put(k, []byte("also-dropped"), tok)
	if _, out, _ := c.Get(k); out != Miss {
		t.Fatalf("fill survived a same-segment invalidation (out=%v)", out)
	}

	// A clean miss-fill cycle still works.
	_, _, tok = c.Get(k)
	c.Put(k, []byte("fresh"), tok)
	if v, out, _ := c.Get(k); out != Hit || string(v) != "fresh" {
		t.Fatalf("clean fill failed: %v %q", out, v)
	}
}

func TestInvalidateAll(t *testing.T) {
	c := New(Options{Bytes: 1 << 20, Segments: 8})
	var toks []Token
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		_, _, tok := c.Get(k)
		c.Put(k, []byte("v"), tok)
		_, _, tok2 := c.Get([]byte(fmt.Sprintf("m%02d", i)))
		toks = append(toks, tok2)
	}
	if c.Len() != 64 {
		t.Fatalf("Len = %d, want 64", c.Len())
	}
	c.InvalidateAll()
	if c.Len() != 0 || c.SizeBytes() != 0 {
		t.Fatalf("after InvalidateAll: len=%d bytes=%d", c.Len(), c.SizeBytes())
	}
	// Every pre-flush token is dead.
	for i, tok := range toks {
		c.Put([]byte(fmt.Sprintf("m%02d", i)), []byte("stale"), tok)
	}
	if c.Len() != 0 {
		t.Fatalf("stale fills landed after InvalidateAll: len=%d", c.Len())
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	// One segment, room for 4 entries of cost entryOverhead+8.
	c := New(Options{Bytes: 4 * (entryOverhead + 8), Segments: 1})
	put := func(i int) {
		k := []byte(fmt.Sprintf("key-%03d", i)) // 7 bytes
		_, _, tok := c.Get(k)
		c.Put(k, []byte("v"), tok) // cost 7+1+entryOverhead
	}
	for i := 0; i < 8; i++ {
		put(i)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4 after eviction", c.Len())
	}
	// Oldest entries are gone, newest remain.
	if _, out, _ := c.Get([]byte("key-000")); out != Miss {
		t.Fatal("oldest entry not evicted")
	}
	if _, out, _ := c.Get([]byte("key-007")); out != Hit {
		t.Fatal("newest entry evicted")
	}
	// Touching an entry protects it: access key-004, add two more, 004 stays.
	if _, out, _ := c.Get([]byte("key-004")); out != Hit {
		t.Fatal("key-004 should be resident")
	}
	put(8)
	put(9)
	if _, out, _ := c.Get([]byte("key-004")); out != Hit {
		t.Fatal("recently used entry was evicted before older ones")
	}
	if got, want := c.SizeBytes(), int64(4*(entryOverhead+8)); got > want {
		t.Fatalf("bytes %d over budget %d", got, want)
	}
}

func TestOversizedEntryNotCached(t *testing.T) {
	c := New(Options{Bytes: 256, Segments: 1})
	k := []byte("k")
	_, _, tok := c.Get(k)
	c.Put(k, make([]byte, 1024), tok)
	if c.Len() != 0 {
		t.Fatal("entry larger than the segment share was cached")
	}
}

func TestDefaultsAndPowerOfTwo(t *testing.T) {
	c := New(Options{})
	if len(c.segs) != defaultSegments {
		t.Fatalf("default segments = %d, want %d", len(c.segs), defaultSegments)
	}
	c = New(Options{Segments: 5})
	if len(c.segs) != 8 {
		t.Fatalf("segments rounded to %d, want 8", len(c.segs))
	}
}

// TestConcurrentFillInvalidate hammers one cache from filling readers and
// invalidating writers; run under -race this is the segment-lock soundness
// check (the read-your-writes end-to-end battery lives in lsmstore).
func TestConcurrentFillInvalidate(t *testing.T) {
	c := New(Options{Bytes: 1 << 20, Segments: 4})
	const keys = 16
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Invalidate([]byte(fmt.Sprintf("k%02d", (i+w)%keys)))
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 20000; i++ {
				k := []byte(fmt.Sprintf("k%02d", i%keys))
				v, out, tok := c.Get(k)
				switch out {
				case Miss:
					c.Put(k, []byte("v"), tok)
				case Hit:
					if string(v) != "v" {
						t.Errorf("hit returned %q", v)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

// record is key i's value in the tests below: its length varies from 1 to
// 2999 bytes so that entries straddle chunk boundaries and the ring's end.
func record(i int) []byte {
	v := make([]byte, 1+i*7919%2999)
	for j := range v {
		v[j] = byte(i + j)
	}
	return v
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

// fillKeys puts keys from..to-1 with record(i) values.
func fillKeys(c *Cache, from, to int) {
	for i := from; i < to; i++ {
		_, _, tok := c.Get(key(i))
		c.Put(key(i), record(i), tok)
	}
}

// TestRingServesExactBytes: over many laps of a ring of four chunks and a
// short fifth, with entries straddling chunk boundaries and the ring's end,
// every hit returns the bytes that were put, the newest entries are always
// resident, and the charged bytes never pass the budget.
func TestRingServesExactBytes(t *testing.T) {
	const budget = 4*chunkBytes + 1000
	c := New(Options{Bytes: budget, Segments: 1})
	hits := 0
	for i := 0; i < 5000; i++ {
		fillKeys(c, i, i+1)
		for _, j := range []int{i, i - 1, i - 7, i - 40} {
			v, out, _ := c.Get(key(j))
			if j == i && out != Hit {
				t.Fatalf("key %d missed right after its fill", j)
			}
			if out == Hit {
				hits++
				if !bytes.Equal(v, record(j)) {
					t.Fatalf("key %d served %d wrong bytes", j, len(v))
				}
			}
		}
		if c.SizeBytes() > budget {
			t.Fatalf("%d bytes charged over a %d-byte budget", c.SizeBytes(), budget)
		}
	}
	if hits < 5000 || c.Len() < 20 {
		t.Fatalf("hits %d, resident %d: the ring holds too little", hits, c.Len())
	}
}

// TestFillAllocatesNothing: once the ring has filled and the index has
// reached its size, a fill — the miss, the copy into the ring, the
// evictions it causes — allocates nothing, and neither does a hit copied
// into a buffer with room.
func TestFillAllocatesNothing(t *testing.T) {
	c := New(Options{Bytes: 1 << 20, Segments: 4})
	fillKeys(c, 0, 4000) // about four laps of every segment
	keys := make([][]byte, 2000)
	for i := range keys {
		keys[i] = key(4000 + i)
	}
	val := record(1)
	i := 0
	if n := testing.AllocsPerRun(len(keys)-1, func() {
		_, _, tok := c.Get(keys[i])
		c.Put(keys[i], val, tok)
		i++
	}); n != 0 {
		t.Fatalf("a fill allocates %.2f times", n)
	}
	dst := make([]byte, 0, len(val))
	if n := testing.AllocsPerRun(100, func() {
		if _, out, _ := c.Append(dst[:0], keys[i-1]); out != Hit {
			t.Fatal("newest key missed")
		}
	}); n != 0 {
		t.Fatalf("a hit into a buffer with room allocates %.0f times", n)
	}
}

// TestCacheHeapIsItsBudget: the cache holds its records in a few large
// pointer-free chunks, not in objects per entry, and what it holds is its
// byte budget plus a small index.
func TestCacheHeapIsItsBudget(t *testing.T) {
	const budget = 4 << 20
	heap := func() (alloc, objects uint64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, ms.HeapObjects
	}
	b0, o0 := heap()
	c := New(Options{Bytes: budget})
	fillKeys(c, 0, 20000) // about 30 MB offered
	b1, o1 := heap()
	if c.Len() < 2000 {
		t.Fatalf("only %d entries resident", c.Len())
	}
	if objects := int64(o1) - int64(o0); objects > budget/chunkBytes+100 {
		t.Fatalf("%d heap objects for %d entries: entries are not in chunks", objects, c.Len())
	}
	if hb := c.HeapBytes(); hb > budget+budget/32 {
		t.Fatalf("the cache holds %d bytes under a %d-byte budget", hb, budget)
	}
	if grown := int64(b1) - int64(b0); grown > c.HeapBytes()+64<<10 {
		t.Fatalf("the heap grew %d bytes; the cache accounts for %d", grown, c.HeapBytes())
	}
	runtime.KeepAlive(c)
}

// TestIndexCollisions drives the index with hashes whose home slots
// collide and interleave in one run that wraps the table's end: every
// deletion leaves the other entries findable, and a key whose hash matches
// another key's entry is a miss, never that entry.
func TestIndexCollisions(t *testing.T) {
	var x index
	// Homes minSlots-2, minSlots-1 and 0 in turn, each tag distinct.
	h := func(k int) uint64 { return uint64((minSlots-2+k%3)%minSlots+k*minSlots) << offBits }
	for k := 0; k < 10; k++ {
		x.insert(h(k), int64(k))
	}
	gone := map[int]bool{}
	for _, del := range []int{3, 0, 8, 5} {
		i := x.find(h(del), int64(del))
		if i < 0 {
			t.Fatalf("entry %d not found before its deletion", del)
		}
		x.del(i)
		gone[del] = true
		for k := 0; k < 10; k++ {
			if found := x.find(h(k), int64(k)) >= 0; found == gone[k] {
				t.Fatalf("after deleting %d: entry %d found=%v", del, k, found)
			}
		}
	}
	if x.n != 6 {
		t.Fatalf("index counts %d entries, want 6", x.n)
	}

	s := New(Options{Bytes: 1 << 16, Segments: 1}).segs[0]
	s.insert(42, []byte("a"), []byte("record of a"), false)
	if i, _ := s.lookup(42, []byte("b")); i >= 0 {
		t.Fatal("a key sharing another key's hash found that key's entry")
	}
	if i, _ := s.lookup(42, []byte("a")); i < 0 {
		t.Fatal("the key itself is not found")
	}
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := New(Options{Bytes: 32 << 20, Segments: 16})
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = key(i)
		_, _, tok := c.Get(keys[i])
		c.Put(keys[i], make([]byte, 128), tok)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]byte, 0, 128)
		i := 0
		for pb.Next() {
			c.Append(dst[:0], keys[i%len(keys)])
			i++
		}
	})
}

// BenchmarkCacheFill measures a miss and its fill in a full ring.
func BenchmarkCacheFill(b *testing.B) {
	c := New(Options{Bytes: 1 << 20, Segments: 16})
	fillKeys(c, 0, 4000)
	keys := make([][]byte, 8192) // a key returns long after its eviction
	for i := range keys {
		keys[i] = key(4000 + i)
	}
	val := make([]byte, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		_, _, tok := c.Get(k)
		c.Put(k, val, tok)
	}
}
