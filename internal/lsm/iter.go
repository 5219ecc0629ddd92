package lsm

import (
	"container/heap"

	"repro/internal/bitmap"
	"repro/internal/btree"
	"repro/internal/kv"
	"repro/internal/memtable"
	"repro/internal/storage"
)

// source is one input stream to a merge iterator, tagged with a recency
// rank: larger rank = newer component, so entries from higher ranks win
// reconciliation of identical keys (Section 2.1).
type source struct {
	rank int
	// Exactly one of scan (a disk component) and mem (a memory component)
	// is set.
	scan *btree.Scan
	mem  *memtable.Iterator

	cur     kv.Entry
	curOrd  int64
	curComp *Component // nil for memory component
	valid   bool
	err     error
}

func (s *source) advance() {
	if s.mem != nil {
		s.cur, s.valid = s.mem.Next()
		return
	}
	e, ord, ok, err := s.scan.Next()
	if err != nil {
		s.err = err
		s.valid = false
		return
	}
	s.cur, s.curOrd, s.valid = e, ord, ok
}

// snapshotFilter hides what a component's snapshot of its deletes hides,
// plus its repair and crack marks (Side-file builds).
type snapshotFilter struct {
	comp *Component
	snap *bitmap.Immutable
}

func (f snapshotFilter) Hidden(ord int64) bool {
	return f.snap.IsSet(ord) || f.comp.Obsolete.IsSet(ord) || f.comp.cracked.Load().IsSet(ord)
}

// sourceHeap orders sources by (key asc, rank desc) so that for equal keys
// the newest source surfaces first.
type sourceHeap []*source

func (h sourceHeap) Len() int { return len(h) }
func (h sourceHeap) Less(i, j int) bool {
	c := kv.Compare(h[i].cur.Key, h[j].cur.Key)
	if c != 0 {
		return c < 0
	}
	return h[i].rank > h[j].rank
}
func (h sourceHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *sourceHeap) Push(x interface{}) { *h = append(*h, x.(*source)) }
func (h *sourceHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// MergedItem is one reconciled entry produced by a merged iterator.
type MergedItem struct {
	Entry kv.Entry
	// Comp is the component the winning version came from (nil = memory).
	Comp *Component
	// Ordinal is the entry's position within Comp.
	Ordinal int64
}

// MergedIterator reconciles entries with identical keys across components:
// only the version from the newest source is emitted. With hideAnti set,
// winning anti-matter entries (deletes) are suppressed (query scans); merge
// scans keep them so tombstones survive partial merges.
//
// An item's entry points into a pinned buffer-cache page (or a memory
// component) and stays valid until the following Next; Close releases the
// component scans' pins and must be called once the iterator is done.
type MergedIterator struct {
	h        sourceHeap
	scans    []*btree.Scan
	hideAnti bool
	// noReconcile emits all versions of duplicate keys.
	noReconcile bool
}

// IterOptions configures a merged iterator over tree components.
type IterOptions struct {
	Lo, Hi []byte // key range [lo, hi); nil = unbounded
	// Components to include, oldest to newest. Required.
	Components []*Component
	// Flushing includes memory components frozen by in-flight flushes
	// (oldest to newest) as sources newer than every disk component and
	// older than Mem (see Tree.ReadView).
	Flushing []*memtable.Table
	// Mem includes the given memory component as the newest source.
	Mem *memtable.Table
	// HideAnti suppresses winning anti-matter entries (query mode).
	HideAnti bool
	// SkipInvisible drops bitmap-invalidated entries at the source.
	SkipInvisible bool
	// NoReconcile disables duplicate-key reconciliation: every visible
	// entry from every source is emitted (secondary-index scans under the
	// Validation strategy emit all versions and let validation filter).
	NoReconcile bool
	// Snapshots overrides components' live mutable bitmaps with immutable
	// snapshots for visibility checks (Side-file builds).
	Snapshots map[*Component]*bitmap.Immutable
	// store, when set, charges the component scans to this store view
	// (a merge's lane) instead of the readers' own.
	store *storage.Store
}

// NewMergedIterator builds a reconciling iterator over the given sources.
func (t *Tree) NewMergedIterator(opts IterOptions) (*MergedIterator, error) {
	mi := &MergedIterator{hideAnti: opts.HideAnti}
	rank := 0
	for _, comp := range opts.Components {
		comp := comp
		reader := comp.BTree
		if opts.store != nil {
			reader = reader.CloneFor(opts.store)
		}
		scan, err := reader.NewScan(opts.Lo, opts.Hi)
		if err != nil {
			mi.Close()
			return nil, err
		}
		mi.scans = append(mi.scans, scan)
		if opts.SkipInvisible {
			// Invisible entries are skipped inside the scan, so the pin on
			// the entry last emitted from it outlives the skipped leaves.
			if snap := opts.Snapshots[comp]; snap != nil {
				scan.Hide(snapshotFilter{comp, snap})
			} else {
				scan.Hide(comp)
			}
		}
		s := &source{rank: rank, curComp: comp, scan: scan}
		s.advance()
		if s.err != nil {
			mi.Close()
			return nil, s.err
		}
		if s.valid {
			mi.h = append(mi.h, s)
		}
		rank++
	}
	for _, memSrc := range append(append([]*memtable.Table(nil), opts.Flushing...), opts.Mem) {
		if memSrc == nil {
			continue
		}
		s := &source{rank: rank, mem: memSrc.NewIterator(opts.Lo, opts.Hi)}
		s.advance()
		if s.valid {
			mi.h = append(mi.h, s)
		}
		rank++
	}
	if opts.NoReconcile {
		mi.noReconcile = true
	}
	heap.Init(&mi.h)
	return mi, nil
}

// Next returns the next reconciled item; ok=false at stream end.
func (mi *MergedIterator) Next() (MergedItem, bool, error) {
	for len(mi.h) > 0 {
		top := mi.h[0]
		if top.err != nil {
			return MergedItem{}, false, top.err
		}
		item := MergedItem{Entry: top.cur, Comp: top.curComp, Ordinal: top.curOrd}
		winKey := item.Entry.Key
		// pop the winner and, unless reconciliation is off, every older
		// version of the same key
		mi.popAdvance()
		if !mi.noReconcile {
			for len(mi.h) > 0 && kv.Compare(mi.h[0].cur.Key, winKey) == 0 {
				if mi.h[0].err != nil {
					return MergedItem{}, false, mi.h[0].err
				}
				mi.popAdvance()
			}
		}
		if mi.hideAnti && item.Entry.Anti {
			continue
		}
		return item, true, nil
	}
	return MergedItem{}, false, nil
}

// Close releases the component scans' pinned pages; Next must not be
// called afterwards. It may be called more than once.
func (mi *MergedIterator) Close() {
	for _, s := range mi.scans {
		s.Close()
	}
	mi.h = nil
}

func (mi *MergedIterator) popAdvance() {
	top := mi.h[0]
	top.advance()
	if top.valid || top.err != nil {
		heap.Fix(&mi.h, 0)
	} else {
		heap.Pop(&mi.h)
	}
}
