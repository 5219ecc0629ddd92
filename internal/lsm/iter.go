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
	// comp is the disk component scan reads; nil for a memory component,
	// which mem iterates.
	comp *Component
	scan btree.Scan
	mem  memtable.Iterator

	cur    kv.Entry
	curOrd int64
	valid  bool
	err    error
}

func (s *source) advance() {
	if s.comp == nil {
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
// plus its repair marks (Side-file builds).
type snapshotFilter struct {
	comp *Component
	snap *bitmap.Immutable
}

func (f snapshotFilter) Hidden(ord int64) bool {
	return f.snap.IsSet(ord) || f.comp.Obsolete.IsSet(ord)
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
	// Rank is the source's recency: Comp's index in IterOptions.Components,
	// or len(Components) and up for the memory components (the flushing
	// ones oldest first, then Mem).
	Rank int
}

// MergedIterator reconciles entries with identical keys across components:
// only the version from the newest source is emitted. With hideAnti set,
// winning anti-matter entries (deletes) are suppressed (query scans); merge
// scans keep them so tombstones survive partial merges.
//
// An item's entry points into a pinned buffer-cache page (or a memory
// component) and stays valid until the following Next; Close releases the
// component scans' pins and must be called once the iterator is done.
//
// The zero MergedIterator is ready to Open, and a closed one may be opened
// again: it keeps its sources' memory, so a caller that holds on to one
// iterator (a query's scratch) opens it without allocating.
type MergedIterator struct {
	// srcs holds every source, exhausted ones included: an exhausted scan
	// still pins the leaf of its last entry until Close. h points into it,
	// so srcs never grows while the iterator is open.
	srcs []source
	h    sourceHeap
	// clones are a streamed open's readers: each input's, charging the
	// stream's store. A scan points into it, so it never grows while the
	// iterator is open either.
	clones   []btree.Reader
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
	// stream, when set, makes the component scans a merge's: full scans
	// that read past the buffer cache (btree.Reader.NewStreamedScan),
	// charged to this store view (the tree's lane). Open panics when Lo
	// or Hi is set with it.
	stream *storage.Store
}

// NewMergedIterator opens a new reconciling iterator over opts' sources.
func NewMergedIterator(opts IterOptions) (*MergedIterator, error) {
	mi := new(MergedIterator)
	if err := mi.Open(opts); err != nil {
		return nil, err
	}
	return mi, nil
}

// Open positions mi over opts' sources. mi must be new or closed; on error
// it is closed again.
func (mi *MergedIterator) Open(opts IterOptions) error {
	if n := len(opts.Components) + len(opts.Flushing) + 1; cap(mi.srcs) < n {
		mi.srcs, mi.h = make([]source, 0, n), make(sourceHeap, 0, n)
	}
	if opts.stream != nil {
		if opts.Lo != nil || opts.Hi != nil {
			panic("lsm: a streamed merge scan is a full scan; Lo and Hi must be nil")
		}
		if cap(mi.clones) < len(opts.Components) {
			mi.clones = make([]btree.Reader, 0, len(opts.Components))
		}
	}
	mi.srcs, mi.h, mi.clones = mi.srcs[:0], mi.h[:0], mi.clones[:0]
	mi.hideAnti, mi.noReconcile = opts.HideAnti, opts.NoReconcile
	for rank, comp := range opts.Components {
		var scan btree.Scan
		var err error
		if opts.stream != nil {
			mi.clones = append(mi.clones, *comp.BTree)
			r := &mi.clones[len(mi.clones)-1]
			r.Rebind(opts.stream)
			scan, err = r.NewStreamedScan()
		} else {
			scan, err = comp.BTree.NewScan(opts.Lo, opts.Hi)
		}
		if err != nil {
			mi.Close()
			return err
		}
		mi.srcs = append(mi.srcs, source{rank: rank, comp: comp, scan: scan})
		s := &mi.srcs[len(mi.srcs)-1]
		if opts.SkipInvisible {
			// Invisible entries are skipped inside the scan, so the pin on
			// the entry last emitted from it outlives the skipped leaves.
			if snap := opts.Snapshots[comp]; snap != nil {
				s.scan.Hide(snapshotFilter{comp, snap})
			} else {
				s.scan.Hide(comp)
			}
		}
		if mi.push(s); s.err != nil {
			mi.Close()
			return s.err
		}
	}
	rank := len(opts.Components)
	for i := 0; i <= len(opts.Flushing); i++ {
		mem := opts.Mem
		if i < len(opts.Flushing) {
			mem = opts.Flushing[i]
		}
		if mem == nil {
			continue
		}
		mi.srcs = append(mi.srcs, source{rank: rank, mem: mem.NewIterator(opts.Lo, opts.Hi)})
		rank++
		mi.push(&mi.srcs[len(mi.srcs)-1])
	}
	heap.Init(&mi.h)
	return nil
}

// push reads s's first entry and puts s on the heap unless it is empty or
// failed (s.err).
func (mi *MergedIterator) push(s *source) {
	s.advance()
	if s.valid {
		mi.h = append(mi.h, s)
	}
}

// Next returns the next reconciled item; ok=false at stream end.
func (mi *MergedIterator) Next() (MergedItem, bool, error) {
	for len(mi.h) > 0 {
		top := mi.h[0]
		if top.err != nil {
			return MergedItem{}, false, top.err
		}
		item := MergedItem{Entry: top.cur, Comp: top.comp, Ordinal: top.curOrd, Rank: top.rank}
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

// Close releases the component scans' pinned pages and drops every
// reference the sources held, keeping only their memory for the next Open;
// Next must not be called afterwards. It may be called more than once.
func (mi *MergedIterator) Close() {
	for i := range mi.srcs {
		if mi.srcs[i].comp != nil {
			mi.srcs[i].scan.Close()
		}
	}
	clear(mi.srcs)
	clear(mi.clones)
	mi.srcs, mi.h, mi.clones = mi.srcs[:0], mi.h[:0], mi.clones[:0]
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
