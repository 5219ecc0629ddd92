// Package memtable implements the in-memory component of an LSM-tree: a
// sorted map from key to the newest entry for that key. Inserts, updates
// and deletes (anti-matter entries, Section 2.1) all go through Put; the
// table keeps exactly one entry per key, the most recent one.
//
// The implementation is a skiplist guarded by a read-write mutex, giving
// concurrent readers and a single writer path, which matches the engine's
// record-level locking discipline.
//
// Nothing a table holds is removed or moved while the table lives, so every
// byte of it lives in byte chunks the table allocates whole and that become
// garbage together, when the flushed table is dropped. A chunk holds no
// pointers, so the garbage collector never scans it. A node costs its bytes
// and nothing more: a fixed header, a tower of uint32 node references, the
// key and the first value, back to back. An overwrite carves a value
// record, the value behind its length, and points the node at it: readers
// may hold the value it supersedes, so a new value never goes where an old
// one was. A Put therefore allocates nothing of its own, and Bytes()
// charges every byte a Put copies in, so a key overwritten in place fills
// the memory budget as new keys do.
package memtable

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/kv"
)

const maxHeight = 16

// Node layout, from a node's first byte. The tower's level-l reference
// follows the header at tower+4l, then come the key and the first value.
// The value reference is that value's length (0 for an empty one) or, when
// the record flag is set, the reference of the value record an overwrite
// carved: the value's length as a uint32, then the value.
const (
	offTS     = 0  // int64
	offKeyLen = 8  // uint32
	offValue  = 12 // uint32 value reference
	offHeight = 16 // uint8
	offAnti   = 17 // uint8: 1 for anti-matter
	offRecord = 18 // uint8: 1 when the value reference names a value record
	tower     = 20 // header size; 19 rounded up to the node alignment
)

// Chunk sizes. A table's first chunk is firstChunk bytes and each next open
// one twice the last, up to chunkSize, so a table that holds little stays
// small; one that never sees a Put holds none. A carve of more than
// maxInline bytes (a large value, or a node with a large key or first
// value) gets a chunk of its own size and leaves the open chunk open, so a
// chunk strands less than maxInline bytes at its end.
const (
	firstChunk = 4 << 10
	chunkSize  = 64 << 10
	maxInline  = chunkSize / 8
)

// A reference, to a node or to a value record, is its chunk's index and its
// offset in that chunk in 4-byte units; everything carved starts 4-aligned.
// Reference 0 is the head node, the first one carved, and as a next
// reference it means "none", since no node links to the head.
const (
	align      = 4
	offsetBits = 14 // chunkSize / align offsets per chunk
	maxChunks  = 1 << (32 - offsetBits)
)

// MaxBudget is the largest memory budget, in accounted bytes, a table may
// be filled to. References address maxChunks chunks, and each chunk but the
// four growing first ones holds over 7 KiB that Bytes() charges: a chunk of
// its own holds one carve of over maxInline bytes, charged all but its
// header; a shared chunk strands less than maxInline bytes, and what it
// holds carves at most 8× its charge (a node: a 20-byte header and up to 16
// tower levels of 4 bytes on top of the key, value and 16 that Bytes()
// counts; an overwrite: a 1-byte value behind its 4-byte length, aligned).
// So a table runs out of references only past about 1.75 GiB charged,
// 1.75× this budget, and a table of the served schema, which carves about
// 1.1× its charge, past about 14 GiB. Should one still fill every chunk,
// Put panics rather than let a reference wrap.
const MaxBudget = 1 << 30

// Table is one memory component. Safe for concurrent use.
type Table struct {
	mu     sync.RWMutex
	height int
	rng    uint64 // splitmix64 state of the tower heights
	count  int
	bytes  int

	// chunks hold the list and the overwrites' value records;
	// chunks[open] is carved up to used. Guarded by mu like the list.
	chunks [][]byte
	open   int
	used   int

	// Component ID bookkeeping (minTS-maxTS of contained entries).
	minTS int64
	maxTS int64

	// Range-filter bookkeeping: minimum/maximum filter-key values observed,
	// maintained by the dataset layer via WidenFilter.
	filterMin int64
	filterMax int64
	hasFilter bool
}

// New creates an empty memory component. The seed keeps skiplist shapes
// deterministic across runs.
func New(seed int64) *Table {
	return &Table{
		height: 1,
		rng:    uint64(seed),
		minTS:  -1,
		maxTS:  -1,
	}
}

// randomHeight draws a tower height, each level above the first with
// probability 1/4, from one splitmix64 step: two bits per level.
func (t *Table) randomHeight() int {
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	h := 1
	for h < maxHeight && z&3 == 0 {
		h++
		z >>= 2
	}
	return h
}

var le = binary.LittleEndian

// at returns the chunk bytes from reference ref on.
func (t *Table) at(ref uint32) []byte {
	return t.chunks[ref>>offsetBits][(ref&(1<<offsetBits-1))*align:]
}

// next returns node n's level-l successor, 0 if none.
func next(n []byte, level int) uint32 {
	return le.Uint32(n[tower+4*level:])
}

// keySpan returns where node n's key starts and ends.
func keySpan(n []byte) (start, end int) {
	start = tower + 4*int(n[offHeight])
	return start, start + int(le.Uint32(n[offKeyLen:]))
}

func nodeKey(n []byte) []byte {
	start, end := keySpan(n)
	return n[start:end]
}

// carve returns the reference and bytes of size fresh bytes: a chunk of
// their own when they are over maxInline, else the open chunk's next ones,
// opening the next chunk when the open one lacks them. The heap rounds a
// chunk of its own up to its size class (an 8 200-byte one to 9 472 bytes,
// a 32 776-byte one to 40 960), and Bytes charges that rounding too.
func (t *Table) carve(size int) (uint32, []byte) {
	size = (size + align - 1) &^ (align - 1)
	if size > maxInline {
		c := t.newChunk(size)
		t.bytes += cap(t.chunks[c]) - size
		return uint32(c) << offsetBits, t.chunks[c]
	}
	if len(t.chunks) == 0 || size > len(t.chunks[t.open])-t.used {
		n := firstChunk
		if len(t.chunks) > 0 {
			n = min(2*len(t.chunks[t.open]), chunkSize)
		}
		t.open, t.used = t.newChunk(n), 0
	}
	ref := uint32(t.open)<<offsetBits | uint32(t.used/align)
	b := t.chunks[t.open][t.used : t.used+size]
	t.used += size
	return ref, b
}

// newChunk appends a chunk of n bytes and returns its index. The chunk's
// capacity is what the heap holds for it: append's growth reads it from the
// allocator's size class.
func (t *Table) newChunk(n int) int {
	if len(t.chunks) == maxChunks {
		panic(fmt.Sprintf("memtable: a table of %d accounted bytes filled all %d chunks its references address", t.bytes, maxChunks))
	}
	t.chunks = append(t.chunks, append([]byte(nil), make([]byte, n)...))
	return len(t.chunks) - 1
}

// seek returns the last node whose key sorts below key, recording the last
// one at each level in update when it is not nil. The table is not empty.
func (t *Table) seek(key []byte, update *[maxHeight]uint32) uint32 {
	var x uint32
	xn := t.at(x)
	for level := t.height - 1; level >= 0; level-- {
		for nx := next(xn, level); nx != 0; nx = next(xn, level) {
			nn := t.at(nx)
			if kv.Compare(nodeKey(nn), key) >= 0 {
				break
			}
			x, xn = nx, nn
		}
		if update != nil {
			update[level] = x
		}
	}
	return x
}

// find returns the node holding key, or nil.
func (t *Table) find(key []byte, update *[maxHeight]uint32) []byte {
	if nx := next(t.at(t.seek(key, update)), 0); nx != 0 {
		if n := t.at(nx); kv.Compare(nodeKey(n), key) == 0 {
			return n
		}
	}
	return nil
}

// entry returns node n's entry. Its slices alias the chunks and are
// clipped to their length, so appending to one copies it; an empty key or
// value is nil.
func (t *Table) entry(n []byte) kv.Entry {
	e := kv.Entry{TS: int64(le.Uint64(n[offTS:])), Anti: n[offAnti] != 0}
	ks, ke := keySpan(n)
	if ke > ks {
		e.Key = n[ks:ke:ke]
	}
	v, vs, l := n, ke, le.Uint32(n[offValue:]) // the value is v[vs:vs+l]
	if n[offRecord] != 0 {
		v = t.at(l)
		vs, l = 4, le.Uint32(v)
	}
	if l > 0 {
		ve := vs + int(l)
		e.Value = v[vs:ve:ve]
	}
	return e
}

// Put inserts or replaces the entry for e.Key. The table copies what it
// keeps into its chunks — a new entry's key and value, an overwrite's
// value — and retains none of e's bytes.
func (t *Table) Put(e kv.Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.chunks) == 0 {
		_, head := t.carve(tower + 4*maxHeight)
		head[offHeight] = maxHeight
	}

	var update [maxHeight]uint32 // 0, the head, above the list's height
	if n := t.find(e.Key, &update); n != nil {
		// An overwrite keeps the node and its key and points it at a new
		// value record; the value it supersedes stays where readers may
		// hold it.
		ref, rec := uint32(0), byte(0)
		if len(e.Value) > 0 {
			var r []byte
			ref, r = t.carve(4 + len(e.Value))
			le.PutUint32(r, uint32(len(e.Value)))
			copy(r[4:], e.Value)
			rec = 1
		}
		le.PutUint32(n[offValue:], ref)
		n[offRecord] = rec
		stamp(n, e)
		t.bytes += len(e.Value)
	} else {
		h := t.randomHeight()
		t.height = max(t.height, h)
		ke := tower + 4*h + len(e.Key)
		ref, n := t.carve(ke + len(e.Value))
		le.PutUint32(n[offKeyLen:], uint32(len(e.Key)))
		n[offHeight] = byte(h)
		copy(n[tower+4*h:], e.Key)
		le.PutUint32(n[offValue:], uint32(copy(n[ke:], e.Value)))
		stamp(n, e)
		for level := 0; level < h; level++ {
			p := t.at(update[level])
			le.PutUint32(n[tower+4*level:], next(p, level))
			le.PutUint32(p[tower+4*level:], ref)
		}
		t.count++
		t.bytes += e.Size()
	}
	if t.minTS < 0 || e.TS < t.minTS {
		t.minTS = e.TS
	}
	if e.TS > t.maxTS {
		t.maxTS = e.TS
	}
}

// stamp writes e's timestamp and anti-matter flag into node n.
func stamp(n []byte, e kv.Entry) {
	le.PutUint64(n[offTS:], uint64(e.TS))
	n[offAnti] = 0
	if e.Anti {
		n[offAnti] = 1
	}
}

// Get returns the entry for key (which may be anti-matter) if present.
func (t *Table) Get(key []byte) (kv.Entry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.chunks) == 0 {
		return kv.Entry{}, false
	}
	if n := t.find(key, nil); n != nil {
		return t.entry(n), true
	}
	return kv.Entry{}, false
}

// Len returns the number of distinct keys.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}

// Bytes returns what Puts copied into the table, which the dataset-wide
// memory-component budget charges (Sections 3 and 6.1): each new key's
// entry (kv.Entry.Size) and each overwrite's value, plus the size-class
// rounding of every carve too large to share a chunk. Nothing is taken off
// when a value is superseded, since its bytes stay in the chunks, so Bytes
// never falls. Node headers and towers stay uncharged: the served schema's
// tables hold about 1.08× their charge even so, and charging them would
// move the flush points of update-free workloads too.
func (t *Table) Bytes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.bytes
}

// ID returns the component ID (minTS, maxTS) of the contained entries.
// Both are -1 while the table is empty.
func (t *Table) ID() (minTS, maxTS int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.minTS, t.maxTS
}

// WidenFilter extends the component's range filter to cover v. The Eager
// strategy widens with both old and new record values; the Validation and
// Mutable-bitmap strategies widen with the new value only (Sections 3-5).
func (t *Table) WidenFilter(v int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.hasFilter {
		t.filterMin, t.filterMax, t.hasFilter = v, v, true
		return
	}
	if v < t.filterMin {
		t.filterMin = v
	}
	if v > t.filterMax {
		t.filterMax = v
	}
}

// Filter returns the component's range filter bounds; ok is false when no
// filter value was ever recorded.
func (t *Table) Filter() (min, max int64, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.filterMin, t.filterMax, t.hasFilter
}

// Iterator walks entries in ascending key order. It holds no lock; it
// keeps the reference of the node it last returned, which stays valid
// because nodes are never removed while a table is live and flush freezes
// the table anyway.
type Iterator struct {
	t *Table
	x uint32 // the head (0) until an entry is returned
	// bounds: lo inclusive, hi exclusive (nil = unbounded). lo is cleared
	// once an entry at or above it has been returned.
	lo, hi []byte
}

// NewIterator returns an iterator over [lo, hi); nil bounds are unbounded.
// It is a value, so a merged iterator keeps it inside its source.
func (t *Table) NewIterator(lo, hi []byte) Iterator {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var x uint32
	if lo != nil && len(t.chunks) > 0 {
		x = t.seek(lo, nil)
	}
	return Iterator{t: t, x: x, lo: lo, hi: hi}
}

// Next returns the next entry; ok is false at the end.
//
// The iterator starts parked on lo's predecessor, and a key put after
// NewIterator can land between that predecessor and lo, so Next skips
// keys below lo until it has returned one at or above it. After that every
// later key sorts above lo: the list is sorted and nodes are never removed.
func (it *Iterator) Next() (kv.Entry, bool) {
	t := it.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.chunks) == 0 {
		return kv.Entry{}, false
	}
	nx := next(t.at(it.x), 0)
	var n []byte
	for nx != 0 {
		n = t.at(nx)
		if it.lo == nil || kv.Compare(nodeKey(n), it.lo) >= 0 {
			break
		}
		it.x, nx = nx, next(n, 0)
	}
	if nx == 0 {
		return kv.Entry{}, false
	}
	if it.hi != nil && kv.Compare(nodeKey(n), it.hi) >= 0 {
		return kv.Entry{}, false
	}
	it.x, it.lo = nx, nil
	return t.entry(n), true
}
