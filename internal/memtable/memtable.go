// Package memtable implements the in-memory component of an LSM-tree: a
// sorted map from key to the newest entry for that key. Inserts, updates
// and deletes (anti-matter entries, Section 2.1) all go through Put; the
// table keeps exactly one entry per key, the most recent one.
//
// The implementation is a skiplist guarded by a read-write mutex, giving
// concurrent readers and a single writer path, which matches the engine's
// record-level locking discipline.
//
// Nodes are never removed while a table lives and a node's key never
// changes, so the whole list lives in byte chunks the table allocates
// whole and that become garbage together, when the flushed table is
// dropped. A chunk holds no pointers, so the garbage collector never scans
// it, and a node costs its bytes and nothing more: a fixed header, a tower
// of uint32 node references, the key and the first value, back to back. A
// Put of a new key therefore allocates nothing of its own.
//
// An overwrite moves the value to a side slot that the node's value
// reference names. The first overwrite of a key carves the slot's value
// from the open chunk too, so it allocates nothing of its own either; every
// later one replaces the slot's value with a copy of its own. The first
// value and the first overwrite's stay in their chunks until the flush, so
// a key overwritten in place pins at most two superseded values, never a
// chain of them, however often it is overwritten. A value too large to
// carve from a chunk lives in a slot, allocated, from the start.
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
const (
	offTS     = 0  // int64
	offKeyLen = 8  // uint32
	offValue  = 12 // uint32 value reference
	offHeight = 16 // uint8
	offAnti   = 17 // uint8: 1 for anti-matter
	tower     = 20 // header size; 18 rounded up to the node alignment
)

// A value reference with slotBit set is the index of the node's side slot
// in its low bits. Without it, it is the length of the value inline behind
// the key (0 for an empty value).
const slotBit = 1 << 31

// Chunk sizes. A table's first chunk is firstChunk bytes and each next one
// twice the last, up to chunkSize, so a table that holds little stays
// small; one that never sees a Put holds none. A node larger than
// chunkSize (only a huge key makes one) gets a chunk of its own size.
const (
	firstChunk = 4 << 10
	chunkSize  = 64 << 10
	// maxInline is the largest value carved from a chunk; a larger one
	// goes to a slot, so a chunk strands at most about this much at its
	// end, unless a key is larger still.
	maxInline = chunkSize / 8
)

// A node reference is the node's chunk index and its offset in that chunk
// in 4-byte units; nodes start 4-aligned. Reference 0 is the head node,
// the first one carved, and as a next reference it means "none", since no
// node links to the head.
const (
	align      = 4
	offsetBits = 14 // chunkSize / align offsets per chunk
	maxChunks  = 1 << (32 - offsetBits)
)

// MaxBudget is the largest memory budget, in accounted bytes, a table may
// be filled to. References address maxChunks chunks, about 16 GiB,
// which leaves 8× headroom: a node adds to the key and value that Bytes()
// counts (plus 16) a 20-byte header, 4 bytes per tower level (4/3 levels
// on average, at most 16) and its alignment; a key's first overwrite
// carves its value from a chunk as well, while Bytes() counts only the
// newest value, so a table whose every key was overwritten by a value as
// long as its first holds at most about twice what it counts; and a chunk
// strands less than one node at its end. Should a table still fill every
// chunk (values overwritten by far shorter ones can do it), Put panics
// rather than let a reference wrap.
const MaxBudget = 2 << 30

// Table is one memory component. Safe for concurrent use.
type Table struct {
	mu     sync.RWMutex
	height int
	rng    uint64 // splitmix64 state of the tower heights
	count  int
	bytes  int

	// chunks hold the list; the last is the open one, carved up to used.
	// slots hold overwritten and oversized values. Guarded by mu like the
	// list.
	chunks [][]byte
	used   int
	slots  [][]byte

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

// at returns the chunk bytes from node ref on.
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

// carve returns the reference and bytes of size fresh bytes, opening a
// chunk when the open one lacks them.
func (t *Table) carve(size int) (uint32, []byte) {
	size = (size + align - 1) &^ (align - 1)
	if len(t.chunks) == 0 || size > len(t.chunks[len(t.chunks)-1])-t.used {
		if len(t.chunks) == maxChunks {
			panic(fmt.Sprintf("memtable: a table of %d accounted bytes filled all %d chunks its references address", t.bytes, maxChunks))
		}
		n := firstChunk
		if len(t.chunks) > 0 {
			n = min(2*len(t.chunks[len(t.chunks)-1]), chunkSize)
		}
		t.chunks = append(t.chunks, make([]byte, max(n, size)))
		t.used = 0
	}
	c := len(t.chunks) - 1
	ref := uint32(c)<<offsetBits | uint32(t.used/align)
	b := t.chunks[c][t.used : t.used+size]
	t.used += size
	return ref, b
}

// newSlot stores a copy of v in a new slot and returns its value reference.
// A value of at most maxInline bytes is carved from the open chunk; a
// larger one is allocated.
func (t *Table) newSlot(v []byte) uint32 {
	var s []byte
	if len(v) <= maxInline {
		_, s = t.carve(len(v))
		s = s[:copy(s, v):len(v)]
	} else {
		s = append([]byte(nil), v...)
	}
	t.slots = append(t.slots, s)
	return uint32(len(t.slots)-1) | slotBit
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

// entry returns node n's entry. Its slices alias the chunk or the slot and
// are clipped to their length, so appending to one copies it; an empty key
// or value is nil.
func (t *Table) entry(n []byte) kv.Entry {
	e := kv.Entry{TS: int64(le.Uint64(n[offTS:])), Anti: n[offAnti] != 0}
	ks, ke := keySpan(n)
	if ke > ks {
		e.Key = n[ks:ke:ke]
	}
	if ref := le.Uint32(n[offValue:]); ref&slotBit != 0 {
		if v := t.slots[ref&^slotBit]; len(v) > 0 {
			e.Value = v[:len(v):len(v)]
		}
	} else if ref > 0 {
		ve := ke + int(ref)
		e.Value = n[ke:ve:ve]
	}
	return e
}

// Put inserts or replaces the entry for e.Key. The table copies what it
// keeps — a new entry's key and value, and a key's first overwrite's value,
// into a chunk, every later overwrite's value into an allocation of its
// own — and retains none of e's bytes.
func (t *Table) Put(e kv.Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.chunks) == 0 {
		_, head := t.carve(tower + 4*maxHeight)
		head[offHeight] = maxHeight
	}

	var update [maxHeight]uint32 // 0, the head, above the list's height
	if n := t.find(e.Key, &update); n != nil {
		// An overwrite keeps the node and its key. Readers may hold the
		// node's value, so a new value never goes where it was: the first
		// overwrite carves a slot's value, every later one replaces the
		// slot's value with a copy of its own.
		t.bytes += len(e.Value) - len(t.entry(n).Value)
		ref := le.Uint32(n[offValue:])
		switch {
		case ref&slotBit != 0:
			t.slots[ref&^slotBit] = append([]byte(nil), e.Value...)
		case len(e.Value) == 0:
			le.PutUint32(n[offValue:], 0)
		default:
			le.PutUint32(n[offValue:], t.newSlot(e.Value))
		}
		stamp(n, e)
	} else {
		h := t.randomHeight()
		t.height = max(t.height, h)
		inline := len(e.Value) <= maxInline
		size := tower + 4*h + len(e.Key)
		if inline {
			size += len(e.Value)
		}
		ref, n := t.carve(size)
		le.PutUint32(n[offKeyLen:], uint32(len(e.Key)))
		n[offHeight] = byte(h)
		ke := tower + 4*h
		ke += copy(n[ke:], e.Key)
		if inline {
			le.PutUint32(n[offValue:], uint32(copy(n[ke:], e.Value)))
		} else {
			le.PutUint32(n[offValue:], t.newSlot(e.Value))
		}
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

// Bytes returns the approximate memory footprint of the entries, used for
// the dataset-wide memory-component budget (Section 3).
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
