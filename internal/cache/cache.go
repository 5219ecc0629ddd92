// Package cache implements the LRU buffer cache that fronts the simulated
// disk, playing the role of the paper's 2 GB (HDD) / 4 GB (SSD) disk buffer
// cache. Capacity is expressed in pages; hits are charged at in-memory cost
// by the caller, misses fall through to the device.
package cache

import "sync"

// PageKey identifies a cached page: (file, page number).
type PageKey struct {
	File uint64
	Page int
}

// entry is one cached page and its own links in the recency list, so a
// miss costs at most one allocation and a hit follows no second pointer.
type entry struct {
	prev, next *entry
	key        PageKey
	data       []byte
}

// LRU is a fixed-capacity least-recently-used page cache. It is safe for
// concurrent use.
type LRU struct {
	mu       sync.Mutex
	capacity int
	items    map[PageKey]*entry
	// root is the sentinel of the circular recency list: root.next is the
	// most recently used entry, root.prev the least.
	root entry

	hits   int64
	misses int64
}

// NewLRU creates a cache holding at most capacity pages. A capacity of 0
// disables caching (every Get misses).
func NewLRU(capacity int) *LRU {
	c := &LRU{capacity: capacity, items: make(map[PageKey]*entry)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

func (e *entry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// pushFront makes e the most recently used entry.
func (c *LRU) pushFront(e *entry) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

// Get returns the cached page and true on a hit. The returned slice must not
// be modified.
func (c *LRU) Get(key PageKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		e.unlink()
		c.pushFront(e)
		c.hits++
		return e.data, true
	}
	c.misses++
	return nil, false
}

// Put inserts a page, evicting the least recently used page if full. A full
// cache reuses the evicted page's entry for the new one, so only a miss
// below capacity allocates: the entry itself never leaves the cache, only
// its data does.
func (c *LRU) Put(key PageKey, data []byte) {
	if c.capacity == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		e.data = data
		e.unlink()
		c.pushFront(e)
		return
	}
	var e *entry
	if len(c.items) >= c.capacity {
		e = c.root.prev
		e.unlink()
		delete(c.items, e.key)
		e.key, e.data = key, data
	} else {
		e = &entry{key: key, data: data}
	}
	c.pushFront(e)
	c.items[key] = e
}

// Contains reports whether key is cached without promoting it in the LRU
// order and without counting a hit or miss. Read-ahead uses it to skip
// already-cached pages of a prefetch window: a prefetch overlap is not a
// use of the page and must not disturb recency or the statistics.
func (c *LRU) Contains(key PageKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// InvalidateFile drops every cached page of the given file (component drop).
func (c *LRU) InvalidateFile(file uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.items {
		if key.File == file {
			e.unlink()
			delete(c.items, key)
		}
	}
}

// Len returns the number of cached pages.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Capacity returns the page capacity.
func (c *LRU) Capacity() int { return c.capacity }

// Stats returns cumulative hit and miss counts.
func (c *LRU) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Reset clears contents and statistics.
func (c *LRU) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.root.prev, c.root.next = &c.root, &c.root
	c.items = make(map[PageKey]*entry)
	c.hits, c.misses = 0, 0
}
