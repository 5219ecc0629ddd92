package lsm

import (
	"container/heap"

	"repro/internal/bitmap"
	"repro/internal/kv"
	"repro/internal/memtable"
	"repro/internal/storage"
)

// source is one input stream to a merge iterator, tagged with a recency
// rank: larger rank = newer component, so entries from higher ranks win
// reconciliation of identical keys (Section 2.1).
type source struct {
	rank int
	next func() (kv.Entry, int64, bool, error) // entry, ordinal, ok

	cur     kv.Entry
	curOrd  int64
	curComp *Component // nil for memory component
	valid   bool
	err     error
}

func (s *source) advance() {
	e, ord, ok, err := s.next()
	if err != nil {
		s.err = err
		s.valid = false
		return
	}
	s.cur, s.curOrd, s.valid = e, ord, ok
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
type MergedIterator struct {
	h        sourceHeap
	hideAnti bool
	// skipInvisible drops entries whose bitmap bits mark them obsolete or
	// deleted before reconciliation (query scans and repair merges).
	skipInvisible bool
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
	mi := &MergedIterator{hideAnti: opts.HideAnti, skipInvisible: opts.SkipInvisible}
	rank := 0
	for _, comp := range opts.Components {
		comp := comp
		reader := comp.BTree
		if opts.store != nil {
			reader = reader.CloneFor(opts.store)
		}
		scan, err := reader.NewScan(opts.Lo, opts.Hi)
		if err != nil {
			return nil, err
		}
		snap := opts.Snapshots[comp]
		s := &source{rank: rank, curComp: comp}
		s.next = func() (kv.Entry, int64, bool, error) {
			for {
				e, ord, ok, err := scan.Next()
				if err != nil || !ok {
					return kv.Entry{}, 0, ok, err
				}
				if mi.skipInvisible {
					if snap != nil {
						if snap.IsSet(ord) || comp.Obsolete.IsSet(ord) ||
							comp.cracked.Load().IsSet(ord) {
							continue
						}
					} else if !comp.entryVisible(ord) {
						continue
					}
				}
				return e, ord, true, nil
			}
		}
		s.advance()
		if s.err != nil {
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
		it := memSrc.NewIterator(opts.Lo, opts.Hi)
		s := &source{rank: rank}
		s.next = func() (kv.Entry, int64, bool, error) {
			e, ok := it.Next()
			return e, 0, ok, nil
		}
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

func (mi *MergedIterator) popAdvance() {
	top := mi.h[0]
	top.advance()
	if top.valid || top.err != nil {
		heap.Fix(&mi.h, 0)
	} else {
		heap.Pop(&mi.h)
	}
}
