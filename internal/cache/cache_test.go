package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func key(f uint64, p int) PageKey { return PageKey{File: f, Page: p} }

func TestPutGet(t *testing.T) {
	c := NewLRU(2)
	c.Put(key(1, 0), []byte("a"))
	if v, ok := c.Get(key(1, 0)); !ok || string(v) != "a" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := c.Get(key(1, 1)); ok {
		t.Fatal("missing page found")
	}
}

func TestEvictionOrder(t *testing.T) {
	c := NewLRU(2)
	c.Put(key(1, 0), []byte("a"))
	c.Put(key(1, 1), []byte("b"))
	c.Get(key(1, 0)) // touch a: now b is LRU
	c.Put(key(1, 2), []byte("c"))
	if _, ok := c.Get(key(1, 1)); ok {
		t.Fatal("LRU page b should have been evicted")
	}
	if _, ok := c.Get(key(1, 0)); !ok {
		t.Fatal("recently used page a evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestPutReplaces(t *testing.T) {
	c := NewLRU(2)
	c.Put(key(1, 0), []byte("a"))
	c.Put(key(1, 0), []byte("a2"))
	if v, _ := c.Get(key(1, 0)); string(v) != "a2" {
		t.Fatalf("replace failed: %q", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after replace", c.Len())
	}
}

func TestZeroCapacityDisables(t *testing.T) {
	c := NewLRU(0)
	c.Put(key(1, 0), []byte("a"))
	if _, ok := c.Get(key(1, 0)); ok {
		t.Fatal("zero-capacity cache stored a page")
	}
}

func TestInvalidateFile(t *testing.T) {
	c := NewLRU(10)
	for p := 0; p < 3; p++ {
		c.Put(key(1, p), []byte{1})
		c.Put(key(2, p), []byte{2})
	}
	c.InvalidateFile(1)
	for p := 0; p < 3; p++ {
		if _, ok := c.Get(key(1, p)); ok {
			t.Fatalf("file 1 page %d survived invalidation", p)
		}
		if _, ok := c.Get(key(2, p)); !ok {
			t.Fatalf("file 2 page %d wrongly invalidated", p)
		}
	}
}

func TestStatsAndReset(t *testing.T) {
	c := NewLRU(2)
	c.Put(key(1, 0), []byte("a"))
	c.Get(key(1, 0))
	c.Get(key(1, 9))
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
	c.Reset()
	hits, misses = c.Stats()
	if hits != 0 || misses != 0 || c.Len() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewLRU(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := key(uint64(g%2), i%100)
				if i%3 == 0 {
					c.Put(k, []byte(fmt.Sprint(i)))
				} else {
					c.Get(k)
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
	c := NewLRU(5)
	for i := 0; i < 100; i++ {
		c.Put(key(1, i), []byte{byte(i)})
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
	c := NewLRU(capacity)
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
			if _, ok := c.Get(k); ok != (i >= 0) {
				t.Fatalf("step %d: Get(%v) hit=%v, model holds=%v", step, k, ok, i >= 0)
			}
			if i >= 0 {
				promote(i, k)
			}
		case op < 8:
			c.Put(k, []byte{byte(step)})
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

// TestMissCostsOneAllocation: inserting below capacity allocates the new
// entry and nothing else; inserting into a full cache reuses the evicted
// page's entry and allocates nothing.
func TestMissCostsOneAllocation(t *testing.T) {
	const capacity = 4096
	c := NewLRU(capacity)
	page := []byte("p")
	n := 0
	put := func() {
		c.Put(key(1, n), page)
		n++
	}
	if allocs := testing.AllocsPerRun(1000, put); allocs != 1 {
		t.Fatalf("Put of a new page below capacity = %v allocations, want 1", allocs)
	}
	for c.Len() < capacity {
		put()
	}
	if allocs := testing.AllocsPerRun(1000, put); allocs != 0 {
		t.Fatalf("Put of a new page at capacity = %v allocations, want 0", allocs)
	}
	if c.Len() != capacity {
		t.Fatalf("Len = %d, want %d", c.Len(), capacity)
	}
}
