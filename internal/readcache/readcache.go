package readcache

import (
	"sync"

	"repro/internal/metrics"
)

// Options sizes a Cache. The zero value of either field picks a default.
type Options struct {
	// Bytes bounds the total memory charged to cached entries (keys,
	// values, and a fixed per-entry overhead). Default 32 MiB.
	Bytes int64
	// Segments is the number of independently locked segments; rounded up
	// to a power of two. Default 16.
	Segments int
}

const (
	defaultBytes    = 32 << 20
	defaultSegments = 16
	// entryOverhead approximates the bookkeeping bytes per entry (map
	// cell, list links, headers) charged against the byte budget.
	entryOverhead = 64
)

// Outcome classifies a Get.
type Outcome int

const (
	// Miss: the key has no entry; the caller should consult the engine
	// and offer the result back via Put/PutNegative with the token.
	Miss Outcome = iota
	// Hit: the key's encoded record was returned.
	Hit
	// NegativeHit: the key is cached as known-absent.
	NegativeHit
)

// Token carries the segment version observed by a Get miss; the matching
// Put/PutNegative installs its entry only if the version is unchanged (see
// doc.go, invariant 2).
type Token uint64

// entry is one cached key, threaded on its segment's intrusive LRU ring.
type entry struct {
	key        string
	val        []byte // nil for negative entries
	neg        bool
	cost       int64
	prev, next *entry
}

// segment is one lock domain: a map, an LRU ring (root.next is
// most-recent), a byte budget share, and the fill-gate version.
type segment struct {
	mu      sync.Mutex
	entries map[string]*entry
	root    entry // sentinel of the LRU ring
	bytes   int64
	cap     int64
	version uint64
}

// Cache is the sharded read cache. See the package documentation for the
// invalidation contract. All methods are safe for concurrent use.
type Cache struct {
	segs     []*segment
	mask     uint64
	counters metrics.Counters // only the ReadCache* fields move
}

// New builds a cache with the given bounds.
func New(o Options) *Cache {
	bytes := o.Bytes
	if bytes <= 0 {
		bytes = defaultBytes
	}
	n := o.Segments
	if n <= 0 {
		n = defaultSegments
	}
	// Round up to a power of two so segment selection is a mask.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	c := &Cache{segs: make([]*segment, pow), mask: uint64(pow - 1)}
	per := bytes / int64(pow)
	if per < 1 {
		per = 1
	}
	for i := range c.segs {
		s := &segment{entries: make(map[string]*entry), cap: per}
		s.root.prev, s.root.next = &s.root, &s.root
		c.segs[i] = s
	}
	return c
}

// segOf hashes pk onto a segment. FNV-1a with a murmur-style finisher: the
// shard router routes with plain FNV-1a, so the extra mix keeps segment
// choice decorrelated from shard choice.
func (c *Cache) segOf(pk []byte) *segment {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range pk {
		h ^= uint64(b)
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return c.segs[h&c.mask]
}

// Get looks pk up. On Hit the returned slice is the cached record — shared,
// not a copy; the caller must not modify it. On Miss the token gates a
// subsequent Put/PutNegative for the same key.
func (c *Cache) Get(pk []byte) ([]byte, Outcome, Token) {
	s := c.segOf(pk)
	s.mu.Lock()
	e, ok := s.entries[string(pk)] // no alloc: map lookup special case
	if !ok {
		tok := Token(s.version)
		s.mu.Unlock()
		c.counters.ReadCacheMisses.Add(1)
		return nil, Miss, tok
	}
	s.moveFront(e)
	val, neg := e.val, e.neg
	s.mu.Unlock()
	if neg {
		c.counters.ReadCacheNegHits.Add(1)
		return nil, NegativeHit, 0
	}
	c.counters.ReadCacheHits.Add(1)
	return val, Hit, 0
}

// Put offers a positive entry observed by an engine read that missed under
// tok. An accepted fill copies val — the cache owns, and is charged for,
// exactly the bytes it keeps, never the page or buffer val was cut from —
// so val is the caller's again when Put returns. It returns the cache's
// copy, which is never modified and may be kept like a Get hit's value. The
// fill is dropped, at no cost, if any invalidation touched the segment
// since the miss, or if the entry alone exceeds the segment's byte share;
// Put then returns nil.
func (c *Cache) Put(pk, val []byte, tok Token) []byte {
	return c.fill(pk, val, false, tok)
}

// PutNegative offers a known-absent entry under the same contract as Put.
func (c *Cache) PutNegative(pk []byte, tok Token) {
	c.fill(pk, nil, true, tok)
}

func (c *Cache) fill(pk, val []byte, neg bool, tok Token) []byte {
	s := c.segOf(pk)
	cost := int64(len(pk)+len(val)) + entryOverhead
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.version != uint64(tok) || cost > s.cap {
		return nil
	}
	if !neg {
		own := make([]byte, len(val)) // cap == len: nothing rides along
		copy(own, val)
		val = own
	}
	if old, ok := s.entries[string(pk)]; ok {
		// A racing reader filled the same key first; refresh in place.
		s.bytes += cost - old.cost
		old.val, old.neg, old.cost = val, neg, cost
		s.moveFront(old)
	} else {
		e := &entry{key: string(pk), val: val, neg: neg, cost: cost}
		s.entries[e.key] = e
		s.pushFront(e)
		s.bytes += cost
	}
	for s.bytes > s.cap {
		s.evictOldest()
	}
	return val
}

// Invalidate removes pk's entry (positive or negative) and bumps the
// segment version so in-flight fills for any key in the segment are
// discarded. Writers call this after applying a mutation and before
// acknowledging it.
func (c *Cache) Invalidate(pk []byte) {
	s := c.segOf(pk)
	s.mu.Lock()
	s.version++
	if e, ok := s.entries[string(pk)]; ok {
		s.remove(e)
	}
	s.mu.Unlock()
	c.counters.ReadCacheInvalidations.Add(1)
}

// InvalidateAll empties the cache and bumps every segment version —
// crash/recover transitions, where whole memtables of writes disappear.
func (c *Cache) InvalidateAll() {
	for _, s := range c.segs {
		s.mu.Lock()
		s.version++
		s.entries = make(map[string]*entry)
		s.root.prev, s.root.next = &s.root, &s.root
		s.bytes = 0
		s.mu.Unlock()
	}
}

// Counters reports the cache's activity as a metrics snapshot holding only
// the ReadCache* fields; lsmstore folds it into the aggregate Stats.
func (c *Cache) Counters() metrics.Snapshot { return c.counters.Snapshot() }

// Len returns the number of cached entries (tests and introspection).
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.segs {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// SizeBytes returns the bytes currently charged (tests and introspection).
func (c *Cache) SizeBytes() int64 {
	var n int64
	for _, s := range c.segs {
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// --- intrusive LRU ring (segment lock held) ---

func (s *segment) pushFront(e *entry) {
	e.prev = &s.root
	e.next = s.root.next
	e.prev.next = e
	e.next.prev = e
}

func (s *segment) moveFront(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	s.pushFront(e)
}

func (s *segment) remove(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	s.bytes -= e.cost
	delete(s.entries, e.key)
}

func (s *segment) evictOldest() {
	if s.root.prev == &s.root {
		return
	}
	s.remove(s.root.prev)
}
