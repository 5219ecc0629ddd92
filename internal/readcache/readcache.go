package readcache

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"repro/internal/metrics"
)

// Options sizes a Cache. The zero value of either field picks a default.
type Options struct {
	// Bytes bounds the bytes the cache's record chunks hold: every entry's
	// key, value and fixed header. Default 32 MiB.
	Bytes int64
	// Segments is the number of independently locked segments; rounded up
	// to a power of two. Default 16.
	Segments int
}

const (
	defaultBytes    = 32 << 20
	defaultSegments = 16
	// entryOverhead is the header every entry carries in its segment's
	// ring: the key's hash (8 bytes), the value length (4), the key length
	// (2) and a flags byte (1), padded to 16. An entry costs its key, its
	// value and this.
	entryOverhead = 16
	// chunkBytes is the size of one ring chunk, the unit the ring is
	// allocated in as it first fills: a ring holding less than its budget
	// holds at most one chunk more than it uses.
	chunkBytes   = 16 << 10
	flagNegative = 1
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

// segment is one lock domain: a ring of entries in pointer-free chunks, the
// index over it, and the fill-gate version.
//
// The ring is a circular byte buffer of size bytes. Entries are written
// back to back at head, each header|key|value, and may straddle a chunk
// boundary or the ring's end. Eviction advances tail past the oldest entry;
// the bytes from tail to head are used, live entries and dead ones (dropped
// from the index by an invalidation, a refill or a promotion) alike, until
// tail passes them.
type segment struct {
	mu         sync.Mutex
	chunks     [][]byte // chunk i holds ring bytes [i*chunkBytes, ...); nil until first written
	size       int64
	head, tail int64
	used       int64
	index      index
	version    uint64
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
	per := max(bytes/int64(pow), 1)
	for i := range c.segs {
		c.segs[i] = &segment{size: per, chunks: make([][]byte, (per+chunkBytes-1)/chunkBytes)}
	}
	return c
}

// hash is FNV-1a with a murmur-style finisher: the shard router routes with
// plain FNV-1a, so the extra mix keeps segment choice decorrelated from
// shard choice. The low bits pick the segment, the high bits the index slot.
func hash(pk []byte) uint64 {
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
	return h
}

// Get looks pk up. On Hit the returned slice is a copy of the cached
// record, sized exactly and the caller's to keep. On Miss the token gates a
// subsequent Put/PutNegative for the same key.
func (c *Cache) Get(pk []byte) ([]byte, Outcome, Token) { return c.Append(nil, pk) }

// Append is Get copying into dst: on Hit it appends the cached record to
// dst and returns the extended slice, allocating only if dst lacks the
// room (a nil dst gets an exactly sized copy). On a Miss or NegativeHit it
// returns dst unchanged.
func (c *Cache) Append(dst, pk []byte) ([]byte, Outcome, Token) {
	h := hash(pk)
	s := c.segs[h&c.mask]
	s.mu.Lock()
	i, off := s.lookup(h, pk)
	if i < 0 {
		tok := Token(s.version)
		s.mu.Unlock()
		c.counters.ReadCacheMisses.Add(1)
		return dst, Miss, tok
	}
	_, _, vlen, neg := s.header(off)
	var val []byte
	if !neg {
		if dst == nil {
			dst = make([]byte, 0, vlen)
		}
		n := len(dst)
		dst = slices.Grow(dst, vlen)[:n+vlen]
		val = dst[n:]
		s.read(val, s.advance(off, int64(entryOverhead+len(pk))))
	}
	if s.old(off) {
		// Second chance: an entry read just before its eviction is written
		// again at head, so eviction stays close to LRU order.
		s.index.del(i)
		s.insert(h, pk, val, neg)
	}
	s.mu.Unlock()
	if neg {
		c.counters.ReadCacheNegHits.Add(1)
		return dst, NegativeHit, 0
	}
	c.counters.ReadCacheHits.Add(1)
	return dst, Hit, 0
}

// Put offers a positive entry observed by an engine read that missed under
// tok. An accepted fill copies val into the segment's ring — the cache
// keeps exactly the bytes it is charged for, never the page or buffer val
// was cut from, and allocates nothing once the ring has filled — so val is
// the caller's again when Put returns. The fill is dropped, at no cost, if
// any invalidation touched the segment since the miss, or if the entry
// alone exceeds the segment's byte share.
func (c *Cache) Put(pk, val []byte, tok Token) {
	c.fill(pk, val, false, tok)
}

// PutNegative offers a known-absent entry under the same contract as Put.
func (c *Cache) PutNegative(pk []byte, tok Token) {
	c.fill(pk, nil, true, tok)
}

func (c *Cache) fill(pk, val []byte, neg bool, tok Token) {
	h := hash(pk)
	s := c.segs[h&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.version != uint64(tok) || int64(entryOverhead+len(pk)+len(val)) > s.size ||
		len(pk) > math.MaxUint16 || int64(len(val)) > math.MaxUint32 {
		return
	}
	if i, _ := s.lookup(h, pk); i >= 0 {
		// A racing reader filled the same key first; its copy is dead.
		s.index.del(i)
	}
	s.insert(h, pk, val, neg)
}

// Invalidate removes pk's entry (positive or negative) and bumps the
// segment version so in-flight fills for any key in the segment are
// discarded. Writers call this after applying a mutation and before
// acknowledging it.
func (c *Cache) Invalidate(pk []byte) {
	h := hash(pk)
	s := c.segs[h&c.mask]
	s.mu.Lock()
	s.version++
	if i, _ := s.lookup(h, pk); i >= 0 {
		s.index.del(i)
	}
	s.mu.Unlock()
	c.counters.ReadCacheInvalidations.Add(1)
}

// InvalidateAll empties the cache and bumps every segment version —
// crash/recover transitions, where whole memtables of writes disappear.
// The chunks stay allocated for the fills that follow.
func (c *Cache) InvalidateAll() {
	for _, s := range c.segs {
		s.mu.Lock()
		s.version++
		clear(s.index.slots)
		s.index.n = 0
		s.head, s.tail, s.used = 0, 0, 0
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
		n += s.index.n
		s.mu.Unlock()
	}
	return n
}

// SizeBytes returns the ring bytes currently charged, dead entries the
// tail has not yet passed included (tests and introspection).
func (c *Cache) SizeBytes() int64 {
	var n int64
	for _, s := range c.segs {
		s.mu.Lock()
		n += s.used
		s.mu.Unlock()
	}
	return n
}

// HeapBytes returns the bytes the cache has allocated: its chunks, at most
// Options.Bytes, and its index (tests and introspection).
func (c *Cache) HeapBytes() int64 {
	var n int64
	for _, s := range c.segs {
		s.mu.Lock()
		for _, ch := range s.chunks {
			n += int64(len(ch))
		}
		n += 8 * int64(len(s.index.slots))
		s.mu.Unlock()
	}
	return n
}

// --- the ring (segment lock held) ---

// insert writes an entry at head, evicting the oldest entries until it
// fits, and indexes it. The caller checked that it fits an empty ring.
func (s *segment) insert(h uint64, pk, val []byte, neg bool) {
	n := int64(entryOverhead + len(pk) + len(val))
	for s.used+n > s.size {
		s.evictOldest()
	}
	var hdr [entryOverhead]byte
	binary.LittleEndian.PutUint64(hdr[0:], h)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(val)))
	binary.LittleEndian.PutUint16(hdr[12:], uint16(len(pk)))
	if neg {
		hdr[14] = flagNegative
	}
	off := s.head
	at := s.write(off, hdr[:])
	at = s.write(at, pk)
	s.head = s.write(at, val)
	s.used += n
	s.index.insert(h, off)
}

// evictOldest moves tail past the oldest entry, dropping it from the index
// unless it is dead already.
func (s *segment) evictOldest() {
	h, klen, vlen, _ := s.header(s.tail)
	n := int64(entryOverhead + klen + vlen)
	if i := s.index.find(h, s.tail); i >= 0 {
		s.index.del(i)
	}
	s.tail = s.advance(s.tail, n)
	s.used -= n
}

// lookup returns the index slot and ring offset of pk's live entry, or a
// negative slot when there is none. A slot whose hash tag matches is
// confirmed by comparing the key bytes, so a collision is a miss, never
// another key's record.
func (s *segment) lookup(h uint64, pk []byte) (int, int64) {
	x := &s.index
	if x.n == 0 {
		return -1, 0
	}
	mask := len(x.slots) - 1
	for i := x.home(h >> offBits); ; i = (i + 1) & mask {
		v := x.slots[i]
		if v == 0 {
			return -1, 0
		}
		if v>>offBits == h>>offBits {
			if off := int64(v&offMask) - 1; s.keyIs(off, pk) {
				return i, off
			}
		}
	}
}

// keyIs reports whether the entry at off has key pk.
func (s *segment) keyIs(off int64, pk []byte) bool {
	if _, klen, _, _ := s.header(off); klen != len(pk) {
		return false
	}
	for at := s.advance(off, entryOverhead); len(pk) > 0; {
		p := s.span(at)
		n := min(len(p), len(pk))
		if string(p[:n]) != string(pk[:n]) {
			return false
		}
		pk = pk[n:]
		at = s.advance(at, int64(n))
	}
	return true
}

// header decodes the entry header at off.
func (s *segment) header(off int64) (h uint64, klen, vlen int, neg bool) {
	var hdr [entryOverhead]byte
	s.read(hdr[:], off)
	return binary.LittleEndian.Uint64(hdr[0:]), int(binary.LittleEndian.Uint16(hdr[12:])),
		int(binary.LittleEndian.Uint32(hdr[8:])), hdr[14]&flagNegative != 0
}

// old reports whether the entry at off lies in the oldest quarter of the
// ring, the next to be evicted. A working set smaller than three quarters
// of the ring is therefore never rewritten, and the ring grows no further
// than it.
func (s *segment) old(off int64) bool {
	d := s.head - off
	if d <= 0 {
		d += s.size
	}
	return d > s.size/4*3
}

// advance returns the ring offset n bytes past off.
func (s *segment) advance(off, n int64) int64 {
	if off += n; off >= s.size {
		off -= s.size
	}
	return off
}

// span returns the ring bytes from off to the end of its chunk, allocating
// the chunk the first time the ring reaches it.
func (s *segment) span(off int64) []byte {
	i := off / chunkBytes
	if s.chunks[i] == nil {
		s.chunks[i] = make([]byte, min(chunkBytes, s.size-i*chunkBytes))
	}
	return s.chunks[i][off-i*chunkBytes:]
}

// write copies b into the ring at off and returns the offset after it.
func (s *segment) write(off int64, b []byte) int64 {
	for len(b) > 0 {
		n := copy(s.span(off), b)
		b = b[n:]
		off = s.advance(off, int64(n))
	}
	return off
}

// read fills dst from the ring at off.
func (s *segment) read(dst []byte, off int64) {
	for len(dst) > 0 {
		n := copy(dst, s.span(off))
		dst = dst[n:]
		off = s.advance(off, int64(n))
	}
}

// --- the index ---

// A slot packs an entry's hash tag (the hash's top 24 bits) above its ring
// offset plus one; 0 is an empty slot. The tag's low bits are the slot's
// home, so the table rehashes from its slots alone.
const (
	offBits  = 40
	offMask  = 1<<offBits - 1
	minSlots = 16
)

// index is an open-addressing hash table with linear probing over
// pointer-free slots. It doubles at three-quarters load and never shrinks,
// so once a segment's entry count has peaked, indexing allocates nothing.
type index struct {
	slots []uint64
	n     int
}

func (x *index) home(tag uint64) int { return int(tag) & (len(x.slots) - 1) }

func (x *index) insert(h uint64, off int64) {
	if 4*(x.n+1) > 3*len(x.slots) {
		old := x.slots
		x.slots = make([]uint64, max(2*len(old), minSlots))
		for _, v := range old {
			if v != 0 {
				x.place(v)
			}
		}
	}
	x.place(h>>offBits<<offBits | uint64(off+1))
	x.n++
}

func (x *index) place(v uint64) {
	mask := len(x.slots) - 1
	i := x.home(v >> offBits)
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = v
}

// find returns the slot holding the entry at ring offset off, or -1 when
// that entry is dead.
func (x *index) find(h uint64, off int64) int {
	if x.n == 0 {
		return -1
	}
	want := h>>offBits<<offBits | uint64(off+1)
	mask := len(x.slots) - 1
	for i := x.home(h >> offBits); ; i = (i + 1) & mask {
		switch x.slots[i] {
		case 0:
			return -1
		case want:
			return i
		}
	}
}

// del empties slot i by backward shift: each later slot of the probe run
// whose home does not lie cyclically after the hole moves into it, so no
// tombstones are left behind.
func (x *index) del(i int) {
	mask := len(x.slots) - 1
	x.n--
	for j := i; ; {
		j = (j + 1) & mask
		v := x.slots[j]
		if v == 0 {
			x.slots[i] = 0
			return
		}
		if k := x.home(v >> offBits); (j-k)&mask >= (j-i)&mask {
			x.slots[i] = v
			i = j
		}
	}
}
