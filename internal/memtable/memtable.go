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
// changes, so nodes, their towers and their keys are carved from slabs —
// chunks the table allocates whole and that become garbage together, when
// the flushed table is dropped. A new key's first value is carved from the
// key slab too, so a Put of a new key allocates nothing of its own. Only an
// overwrite allocates: it replaces the node's value with a copy of its own,
// which is collectable the moment a later overwrite replaces it. A
// superseded first value stays in its slab until the flush, so a key
// overwritten in place pins at most one superseded value, never a chain of
// them, however often it is overwritten.
package memtable

import (
	"math/rand"
	"sync"

	"repro/internal/kv"
)

const maxHeight = 16

// Slab sizes. A table that holds anything holds at least one slab of each
// kind (34 KiB together, with the first 4 KiB key chunk); one that never sees a Put holds none.
const (
	nodeSlab  = 256  // nodes per slab
	towerSlab = 1024 // next-pointers per slab; a node uses 4/3 on average
)

type node struct {
	entry kv.Entry
	next  []*node
}

// Table is one memory component. Safe for concurrent use.
type Table struct {
	mu     sync.RWMutex
	head   *node
	height int
	rng    *rand.Rand
	count  int
	bytes  int

	// The open slab of each kind; full ones stay reachable through the
	// nodes, towers, keys and first values carved from them. Guarded by mu
	// like the list.
	nodes  []node
	towers []*node
	keys   kv.Arena // keys and first values

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
		head:   &node{next: make([]*node, maxHeight)},
		height: 1,
		rng:    rand.New(rand.NewSource(seed)),
		minTS:  -1,
		maxTS:  -1,
	}
}

func (t *Table) randomHeight() int {
	h := 1
	for h < maxHeight && t.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// newNode carves a node with an h-high tower from the slabs.
func (t *Table) newNode(h int) *node {
	if len(t.nodes) == cap(t.nodes) {
		t.nodes = make([]node, 0, nodeSlab)
	}
	if h > cap(t.towers)-len(t.towers) {
		t.towers = make([]*node, 0, towerSlab)
	}
	t.nodes = t.nodes[:len(t.nodes)+1]
	n := &t.nodes[len(t.nodes)-1]
	top := len(t.towers) + h
	n.next = t.towers[len(t.towers):top:top]
	t.towers = t.towers[:top]
	return n
}

// Put inserts or replaces the entry for e.Key. The table copies what it
// keeps — a new entry's key and value into a slab, an overwrite's value
// into an allocation of its own — and retains none of e's bytes.
func (t *Table) Put(e kv.Entry) {
	// The stored entry is built from a fresh local, never from e: were e
	// itself stored, its key would escape and a caller could not compose
	// one in a stack buffer.
	stored := kv.Entry{TS: e.TS, Anti: e.Anti}
	t.mu.Lock()
	defer t.mu.Unlock()

	var update [maxHeight]*node
	x := t.head
	for level := t.height - 1; level >= 0; level-- {
		for x.next[level] != nil && kv.Compare(x.next[level].entry.Key, e.Key) < 0 {
			x = x.next[level]
		}
		update[level] = x
	}
	if nxt := x.next[0]; nxt != nil && kv.Compare(nxt.entry.Key, e.Key) == 0 {
		stored.Key = nxt.entry.Key // an overwrite keeps the node's key
		stored.Value = append([]byte(nil), e.Value...)
		t.bytes += stored.Size() - nxt.entry.Size()
		nxt.entry = stored
	} else {
		h := t.randomHeight()
		if h > t.height {
			for level := t.height; level < h; level++ {
				update[level] = t.head
			}
			t.height = h
		}
		stored.Key, stored.Value = t.keys.Copy(e.Key), t.keys.Copy(e.Value)
		n := t.newNode(h)
		n.entry = stored
		for level := 0; level < h; level++ {
			n.next[level] = update[level].next[level]
			update[level].next[level] = n
		}
		t.count++
		t.bytes += stored.Size()
	}
	if t.minTS < 0 || e.TS < t.minTS {
		t.minTS = e.TS
	}
	if e.TS > t.maxTS {
		t.maxTS = e.TS
	}
}

// Get returns the entry for key (which may be anti-matter) if present.
func (t *Table) Get(key []byte) (kv.Entry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	x := t.head
	for level := t.height - 1; level >= 0; level-- {
		for x.next[level] != nil && kv.Compare(x.next[level].entry.Key, key) < 0 {
			x = x.next[level]
		}
	}
	if nxt := x.next[0]; nxt != nil && kv.Compare(nxt.entry.Key, key) == 0 {
		return nxt.entry, true
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
// snapshots next-pointers as it goes, which is safe because nodes are never
// removed while a table is live and flush freezes the table anyway.
type Iterator struct {
	t *Table
	x *node
	// bounds: lo inclusive, hi exclusive (nil = unbounded). lo is cleared
	// once an entry at or above it has been returned.
	lo, hi []byte
}

// NewIterator returns an iterator over [lo, hi); nil bounds are unbounded.
// It is a value, so a merged iterator keeps it inside its source.
func (t *Table) NewIterator(lo, hi []byte) Iterator {
	t.mu.RLock()
	defer t.mu.RUnlock()
	x := t.head
	if lo != nil {
		for level := t.height - 1; level >= 0; level-- {
			for x.next[level] != nil && kv.Compare(x.next[level].entry.Key, lo) < 0 {
				x = x.next[level]
			}
		}
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
	it.t.mu.RLock()
	defer it.t.mu.RUnlock()
	nxt := it.x.next[0]
	for it.lo != nil && nxt != nil && kv.Compare(nxt.entry.Key, it.lo) < 0 {
		it.x = nxt
		nxt = nxt.next[0]
	}
	if nxt == nil {
		return kv.Entry{}, false
	}
	if it.hi != nil && kv.Compare(nxt.entry.Key, it.hi) >= 0 {
		return kv.Entry{}, false
	}
	it.x, it.lo = nxt, nil
	return nxt.entry, true
}
