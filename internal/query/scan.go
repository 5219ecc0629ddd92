package query

import (
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/lsm"
	"repro/internal/memtable"
)

// FilterScan scans the primary index for records whose filter key lies in
// [lo, hi], using the component-level range filters for pruning. The set of
// components that must be read depends on the maintenance strategy
// (Sections 3.1, 4.2, 5; evaluated in Figure 19):
//
//   - Eager: filters are widened with old records on every update, so only
//     components whose filter overlaps the predicate are scanned,
//     reconciled together.
//   - Validation: filters only reflect new records; a query touching an
//     older component must also read every newer component (and memory) so
//     no overriding update is missed.
//   - Mutable-bitmap: deletes are reflected in-place through bitmaps, so
//     only overlapping components are read — and they can be scanned one by
//     one without reconciliation.
//
// emit is called once per matching record. A record read from a disk
// component is the pinned buffer-cache page's bytes, valid only until emit
// returns. A reconciled scan's merged iterator lives in a recycled scratch.
func FilterScan(ds *core.Dataset, lo, hi int64, emit func(kv.Entry)) error {
	sc := getScratch()
	defer sc.release()
	return sc.filterScan(ds, lo, hi, emit)
}

func (sc *scratch) filterScan(ds *core.Dataset, lo, hi int64, emit func(kv.Entry)) error {
	extract := ds.Config().FilterExtract
	primary := ds.Primary()
	// One atomic view: a concurrent flush's frozen memtable stays visible
	// as a source newer than every disk component (see Tree.ReadView). It
	// stays pinned until the scan returns, so a merge installing meanwhile
	// cannot take the components' files away.
	v := primary.ReadView()
	defer v.Release()
	mem, flushing, comps := v.Mem, v.Flushing, v.Components

	check := func(e kv.Entry) {
		if extract != nil {
			if v, ok := extract(e.Value); !ok || v < lo || v > hi {
				return
			}
		}
		emit(e)
	}

	overlaps := func(m *memtable.Table) bool {
		if m == nil {
			return false
		}
		if fmin, fmax, ok := m.Filter(); ok {
			return !(fmax < lo || fmin > hi)
		}
		return m.Len() > 0
	}
	memOverlaps := overlaps(mem)
	flushingOverlaps := false
	for _, m := range flushing {
		if overlaps(m) {
			flushingOverlaps = true
			break
		}
	}

	switch ds.Config().Strategy {
	case core.MutableBitmap:
		// Scan each overlapping component independently; bitmaps already
		// reflect deletes, so no cross-component reconciliation is needed.
		for _, c := range comps {
			if c.FilterDisjoint(lo, hi) {
				continue
			}
			if err := scanVisible(c, check); err != nil {
				return err
			}
		}
		// Memory-side sources must reconcile among themselves: a version
		// frozen by an in-flight asynchronous flush may be superseded by a
		// newer version or anti-matter in a later frozen memtable or the
		// live one, and memtables carry no validity bitmaps to reflect
		// that. (Deletes of keys living in frozen memtables reach the built
		// component's bitmap through the flush batch; until the install,
		// the anti-matter in the newer memory source is the only evidence.)
		if flushingOverlaps || memOverlaps {
			return sc.reconciledScan(nil, flushing, mem, check)
		}
		return nil

	case core.Validation, core.DeletedKey:
		// Correctness rule of Section 4.2: accessing an older component
		// requires accessing all newer components too, because their
		// filters were not widened by updates.
		firstIdx := -1
		for i, c := range comps {
			if !c.FilterDisjoint(lo, hi) {
				firstIdx = i
				break
			}
		}
		if firstIdx < 0 {
			if flushingOverlaps {
				// Reading the flushing table requires reading the (newer)
				// memory component too.
				return sc.reconciledScan(nil, flushing, mem, check)
			}
			if !memOverlaps {
				return nil
			}
			return sc.reconciledScan(nil, nil, mem, check)
		}
		return sc.reconciledScan(comps[firstIdx:], flushing, mem, check)

	default: // Eager
		var cands []*lsm.Component
		for _, c := range comps {
			if !c.FilterDisjoint(lo, hi) {
				cands = append(cands, c)
			}
		}
		flushArg := flushing
		if !flushingOverlaps {
			flushArg = nil
		}
		memArg := mem
		if !memOverlaps {
			memArg = nil
		}
		if len(cands) == 0 && flushArg == nil && memArg == nil {
			return nil
		}
		return sc.reconciledScan(cands, flushArg, memArg, check)
	}
}

// scanVisible emits every entry of c that neither a bitmap nor anti-matter
// hides, without reconciliation.
func scanVisible(c *lsm.Component, emit func(kv.Entry)) error {
	scan, err := c.BTree.NewScan(nil, nil)
	if err != nil {
		return err
	}
	defer scan.Close()
	scan.Hide(c)
	for {
		e, _, ok, err := scan.Next()
		if err != nil || !ok {
			return err
		}
		if !e.Anti {
			emit(e)
		}
	}
}

// reconciledScan runs a full reconciled scan over the given components, the
// flushing memtables, and the live memory component (either may be empty),
// hiding anti-matter.
func (sc *scratch) reconciledScan(comps []*lsm.Component, flushing []*memtable.Table, mem *memtable.Table, emit func(kv.Entry)) error {
	it := &sc.it
	if err := it.Open(lsm.IterOptions{
		Components:    comps,
		Flushing:      flushing,
		Mem:           mem,
		HideAnti:      true,
		SkipInvisible: true,
	}); err != nil {
		return err
	}
	defer it.Close()
	for {
		item, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		emit(item.Entry)
	}
}
