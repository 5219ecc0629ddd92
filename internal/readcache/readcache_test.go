package readcache

import (
	"fmt"
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
	// One segment, room for roughly 4 entries of cost 64+8.
	c := New(Options{Bytes: 4 * (entryOverhead + 8), Segments: 1})
	put := func(i int) {
		k := []byte(fmt.Sprintf("key-%03d", i)) // 7 bytes
		_, _, tok := c.Get(k)
		c.Put(k, []byte("v"), tok) // cost 7+1+64 = 72
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

func BenchmarkCacheGetHit(b *testing.B) {
	c := New(Options{Bytes: 32 << 20, Segments: 16})
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i))
		_, _, tok := c.Get(keys[i])
		c.Put(keys[i], make([]byte, 128), tok)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Get(keys[i%len(keys)])
			i++
		}
	})
}
