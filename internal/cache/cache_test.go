package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func key(f uint64, p int) PageKey { return PageKey{File: f, Page: p} }

// put caches data under k the way a miss does — into a frame from Frame —
// and unpins it.
func put(c *LRU, k PageKey, data string) {
	f, _ := c.Frame()
	f.Data = append(f.Data, data...)
	c.Put(k, f)
	c.Unpin(f)
}

// get returns a copy of the page cached under k, unpinning it.
func get(c *LRU, k PageKey) (string, bool) {
	f, ok := c.Get(k)
	if !ok {
		return "", false
	}
	defer c.Unpin(f)
	return string(f.Data), true
}

func TestPutGet(t *testing.T) {
	c := NewLRU(2, 8)
	put(c, key(1, 0), "a")
	if v, ok := get(c, key(1, 0)); !ok || string(v) != "a" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := get(c, key(1, 1)); ok {
		t.Fatal("missing page found")
	}
}

func TestEvictionOrder(t *testing.T) {
	c := NewLRU(2, 8)
	put(c, key(1, 0), "a")
	put(c, key(1, 1), "b")
	get(c, key(1, 0)) // touch a: now b is LRU
	put(c, key(1, 2), "c")
	if _, ok := get(c, key(1, 1)); ok {
		t.Fatal("LRU page b should have been evicted")
	}
	if _, ok := get(c, key(1, 0)); !ok {
		t.Fatal("recently used page a evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestPutReplaces(t *testing.T) {
	c := NewLRU(2, 8)
	put(c, key(1, 0), "a")
	put(c, key(1, 0), "a2")
	if v, _ := get(c, key(1, 0)); string(v) != "a2" {
		t.Fatalf("replace failed: %q", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after replace", c.Len())
	}
}

func TestZeroCapacityDisables(t *testing.T) {
	c := NewLRU(0, 8)
	put(c, key(1, 0), "a")
	if _, ok := get(c, key(1, 0)); ok {
		t.Fatal("zero-capacity cache stored a page")
	}
}

func TestInvalidateFile(t *testing.T) {
	c := NewLRU(10, 8)
	for p := 0; p < 3; p++ {
		put(c, key(1, p), "1")
		put(c, key(2, p), "2")
	}
	c.InvalidateFile(1)
	for p := 0; p < 3; p++ {
		if _, ok := get(c, key(1, p)); ok {
			t.Fatalf("file 1 page %d survived invalidation", p)
		}
		if _, ok := get(c, key(2, p)); !ok {
			t.Fatalf("file 2 page %d wrongly invalidated", p)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewLRU(64, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := key(uint64(g%2), i%100)
				if i%3 == 0 {
					put(c, k, fmt.Sprint(i))
				} else {
					get(c, k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("capacity exceeded: %d", c.Len())
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := NewLRU(5, 8)
	for i := 0; i < 100; i++ {
		put(c, key(1, i), fmt.Sprint(i))
		if c.Len() > 5 {
			t.Fatalf("capacity exceeded at %d: %d", i, c.Len())
		}
	}
	if c.Capacity() != 5 {
		t.Fatalf("Capacity = %d", c.Capacity())
	}
}

// TestEvictionOrderMatchesModel drives the cache and a slice-based reference
// LRU with the same random operations and compares what each holds after
// every step: Get and Put promote, Contains does not, a replacing Put
// promotes without evicting, and the victim is always the least recently
// used page. The simulator's hit/miss sequence depends on exactly this.
func TestEvictionOrderMatchesModel(t *testing.T) {
	const capacity = 8
	rng := rand.New(rand.NewSource(5))
	c := NewLRU(capacity, 8)
	var model []PageKey // most recently used first
	find := func(k PageKey) int {
		for i, m := range model {
			if m == k {
				return i
			}
		}
		return -1
	}
	promote := func(i int, k PageKey) {
		if i >= 0 {
			model = append(model[:i], model[i+1:]...)
		}
		model = append([]PageKey{k}, model...)
	}
	for step := 0; step < 20000; step++ {
		k := key(uint64(rng.Intn(3)), rng.Intn(8))
		switch op := rng.Intn(10); {
		case op < 4:
			i := find(k)
			if _, ok := get(c, k); ok != (i >= 0) {
				t.Fatalf("step %d: Get(%v) hit=%v, model holds=%v", step, k, ok, i >= 0)
			}
			if i >= 0 {
				promote(i, k)
			}
		case op < 8:
			put(c, k, fmt.Sprint(step))
			promote(find(k), k)
			if len(model) > capacity {
				model = model[:capacity]
			}
		case op < 9:
			if c.Contains(k) != (find(k) >= 0) {
				t.Fatalf("step %d: Contains(%v) disagrees with the model", step, k)
			}
		default:
			c.InvalidateFile(k.File)
			kept := model[:0]
			for _, m := range model {
				if m.File != k.File {
					kept = append(kept, m)
				}
			}
			model = kept
		}
		if c.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model holds %d", step, c.Len(), len(model))
		}
		for _, m := range model {
			if !c.Contains(m) {
				t.Fatalf("step %d: %v evicted, model keeps it", step, m)
			}
		}
	}
}

// TestMissAtCapacityAllocatesNothing: a miss into a full cache reads into
// the frame its previous eviction freed and links it into the entry the
// evicted page left, so the whole Frame/Put/Unpin cycle allocates nothing;
// below capacity it allocates the frame and its buffer.
func TestMissAtCapacityAllocatesNothing(t *testing.T) {
	const capacity = 4096
	c := NewLRU(capacity, 8)
	n := 0
	miss := func() {
		f, _ := c.Frame()
		f.Data = append(f.Data, 'p')
		c.Put(key(1, n), f)
		c.Unpin(f)
		n++
	}
	if allocs := testing.AllocsPerRun(1000, miss); allocs != 2 {
		t.Fatalf("a miss below capacity = %v allocations, want 2 (frame and buffer)", allocs)
	}
	for c.Len() < capacity {
		miss()
	}
	if allocs := testing.AllocsPerRun(1000, miss); allocs != 0 {
		t.Fatalf("a miss at capacity = %v allocations, want 0", allocs)
	}
	if c.Len() != capacity {
		t.Fatalf("Len = %d, want %d", c.Len(), capacity)
	}
	if c.Pinned() != 0 {
		t.Fatalf("Pinned = %d after every frame was unpinned", c.Pinned())
	}
}

// TestPinnedFramesAllocateNothing: on a full cache, spareFrames frames
// pinned at once outside it — a streamed scan's uncached frames and pages
// evicted while a reader held them, whole and small — find their frames free
// and go back to their free lists at their unpin, so a round of them
// allocates nothing. Free lists capped at one frame drop most of them, and
// every round allocates them anew.
func TestPinnedFramesAllocateNothing(t *testing.T) {
	const capacity, frameBytes = 2, 64
	c := NewLRU(capacity, frameBytes)
	n := 0
	held := make([]*Frame, 0, spareFrames)
	var page [frameBytes]byte
	round := func() {
		for j := range spareFrames {
			f, _ := c.Frame()
			if j%2 == 1 { // a miss, cached and evicted by the next ones while held
				f.Data = append(f.Data, page[:frameBytes>>(j%3)]...)
				f, _ = c.Fit(f)
				c.Put(key(1, n), f)
				n++
			}
			held = append(held, f)
		}
		for _, f := range held {
			c.Unpin(f)
		}
		held = held[:0]
	}
	round()
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a round of %d pinned frames on a full cache allocates %v times, want 0", spareFrames, allocs)
	}
	if c.Len() != capacity || c.Pinned() != 0 {
		t.Fatalf("Len/Pinned = %d/%d, want %d/0", c.Len(), c.Pinned(), capacity)
	}
}

// TestPinnedVictimKeepsItsBytes: evicting or invalidating a pinned page
// takes it out of the cache exactly as an unpinned one, but its frame is
// neither poisoned nor reused until its last Unpin; then the next miss
// reads into it.
func TestPinnedVictimKeepsItsBytes(t *testing.T) {
	for _, how := range []string{"evict", "invalidate", "reset", "replace"} {
		t.Run(how, func(t *testing.T) {
			c := NewLRU(2, 8)
			c.SetPoison(true)
			put(c, key(1, 0), "a")
			held, ok := c.Get(key(1, 0))
			if !ok {
				t.Fatal("miss")
			}
			switch how {
			case "evict":
				put(c, key(1, 1), "b")
				put(c, key(1, 2), "c") // a is the LRU page
			case "invalidate":
				c.InvalidateFile(1)
			case "reset":
				c.Reset()
			case "replace":
				put(c, key(1, 0), "a")
			}
			if how != "replace" && c.Contains(key(1, 0)) {
				t.Fatal("the pinned page is still cached")
			}
			for i := 0; i < 4; i++ { // misses that would reuse a freed frame
				put(c, key(2, i), "x")
			}
			if string(held.Data) != "a" {
				t.Fatalf("pinned page reads %q, want %q", held.Data, "a")
			}
			if c.Pinned() != 1 {
				t.Fatalf("Pinned = %d, want 1", c.Pinned())
			}
			c.Unpin(held)
			if c.Pinned() != 0 {
				t.Fatalf("Pinned = %d after the last Unpin", c.Pinned())
			}
		})
	}
}

// TestFreedFrameIsPoisoned: with poisoning on, a frame freed by its last
// Unpin is overwritten before the next miss reads into it.
func TestFreedFrameIsPoisoned(t *testing.T) {
	c := NewLRU(2, 8)
	c.SetPoison(true)
	put(c, key(1, 0), "a")
	held, _ := c.Get(key(1, 0))
	c.InvalidateFile(1)
	c.Unpin(held)
	f, reused := c.Frame()
	if !reused || f != held {
		t.Fatalf("the unpinned frame was not the next one reused (reused=%v)", reused)
	}
	if buf := f.Data[:cap(f.Data)]; buf[0] != poison {
		t.Fatalf("a freed frame reads %#x, want the poison pattern", buf[0])
	}
}

// TestUnpinUnpinnedPanics: a second Unpin of one pin could free a frame
// another reader holds, so it panics instead.
func TestUnpinUnpinnedPanics(t *testing.T) {
	c := NewLRU(2, 8)
	put(c, key(1, 0), "a")
	f, _ := c.Get(key(1, 0))
	c.Unpin(f)
	defer func() {
		if recover() == nil {
			t.Fatal("Unpin of an unpinned frame did not panic")
		}
	}()
	c.Unpin(f)
}

// fit reads an n-byte page into a frame from Frame and hands it to Fit,
// returning the frame Fit chose, pinned and uncached, and whether it was
// recycled.
func fit(c *LRU, n int) (*Frame, bool) {
	f, _ := c.Frame()
	f.Data = append(f.Data, make([]byte, n)...)
	g, allocated := c.Fit(f)
	return g, !allocated
}

// TestFitPicksTheSmallestClass: a page filling more than half a frame stays
// in the whole frame it was read into; a smaller one moves to a frame of
// the smallest class that holds it, down to a 64th of a frame, and the
// whole frame goes back to the free list for the next miss.
func TestFitPicksTheSmallestClass(t *testing.T) {
	const frameBytes = 1024
	c := NewLRU(4, frameBytes)
	for _, tc := range []struct{ n, want int }{{1024, 1024}, {513, 1024}, {512, 512}, {300, 512}, {256, 256}, {40, 64}, {17, 32}, {16, 16}, {1, 16}} {
		staged, _ := c.Frame()
		staged.Data = append(staged.Data, bytes.Repeat([]byte{byte(tc.n)}, tc.n)...)
		g, _ := c.Fit(staged)
		if cap(g.buf) != tc.want || !bytes.Equal(g.Data, bytes.Repeat([]byte{byte(tc.n)}, tc.n)) {
			t.Fatalf("a %d-byte page sits in a %d-byte buffer (%d bytes intact), want %d", tc.n, cap(g.buf), len(g.Data), tc.want)
		}
		if g != staged {
			if next, reused := c.Frame(); !reused || next != staged {
				t.Fatalf("a %d-byte page's staging frame did not go back to the free list", tc.n)
			} else {
				c.Unpin(next)
			}
		}
		c.Unpin(g)
	}
	if c.Pinned() != 0 {
		t.Fatalf("Pinned = %d after every frame was unpinned", c.Pinned())
	}
}

// TestFreeFramesBounded: every size class keeps its own free frames —
// whole frames while cached whole pages plus free whole frames stay within
// capacity+spareFrames, each smaller class at most spareFrames — so a full
// free list of one class never starves another, a frame only ever comes
// back in the class it was made for, and a buffer a device allocated for a
// page is never kept.
func TestFreeFramesBounded(t *testing.T) {
	const capacity, frameBytes = 4, 64
	c := NewLRU(capacity, frameBytes)
	var held []*Frame
	for range 2 * (capacity + spareFrames) {
		f, _ := c.Frame()
		held = append(held, f)
	}
	for i := 1; i < c.nclasses; i++ {
		for range 2 * spareFrames {
			f, _ := fit(c, frameBytes>>i)
			held = append(held, f)
		}
	}
	staged, _ := c.Frame()
	staged.Data = make([]byte, 3) // a page the device put in a buffer of its own
	own, allocated := c.Fit(staged)
	if !allocated || own.class >= 0 {
		t.Fatalf("a device's own buffer came back as class %d (allocated=%v)", own.class, allocated)
	}
	held = append(held, own)
	put(c, key(1, 0), "p")
	small, _ := fit(c, 5)
	c.Put(key(1, 1), small)
	c.Unpin(small)
	for _, f := range held { // every class's free list is offered twice its room
		c.Unpin(f)
	}

	for i := c.nclasses - 1; i > 0; i-- {
		var kept []*Frame
		for {
			f, reused := fit(c, frameBytes>>i)
			kept = append(kept, f)
			if !reused {
				break
			}
			if cap(f.buf) != frameBytes>>i || f == own {
				t.Fatalf("class %d recycled a %d-byte buffer", i, cap(f.buf))
			}
		}
		if n := len(kept) - 1; n != spareFrames {
			t.Fatalf("class %d kept %d free frames, want %d", i, n, spareFrames)
		}
		for _, f := range kept {
			c.Unpin(f)
		}
	}
	var whole []*Frame
	for {
		f, reused := c.Frame()
		whole = append(whole, f)
		if !reused {
			break
		}
		if cap(f.buf) != frameBytes || f == own {
			t.Fatalf("a %d-byte buffer was kept as a whole frame", cap(f.buf))
		}
	}
	// One of the two cached pages is in a whole frame; the small one is not.
	if n, want := len(whole)-1, capacity+spareFrames-1; n != want {
		t.Fatalf("%d whole frames kept beside one cached whole page, want %d", n, want)
	}
	for _, f := range whole {
		c.Unpin(f)
	}
	if c.Pinned() != 0 {
		t.Fatalf("Pinned = %d after every frame was unpinned", c.Pinned())
	}
}
