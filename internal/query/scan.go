package query

import (
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/lsm"
	"repro/internal/memtable"
)

// FilterScan scans the primary index for records whose filter key lies in
// [lo, hi], using the component-level range filters for pruning (Sections
// 3.1, 4.2, 5; evaluated in Figure 19). One rule picks the sources: walking
// the view oldest to newest — disk components, then the flushing memtables,
// then the live memtable — a source is read when its filter overlaps
// [lo, hi], or when an older source is already read and the strategy makes
// newer sources follow it:
//
//   - Validation and Deleted-key: filters only reflect new records, so
//     reading an older source means reading every newer one too, or an
//     update that moved a record out of the range would be missed (the
//     correctness rule of Section 4.2).
//   - Eager: updates widen the new version's filter with the old record's
//     value, so the overlapping sources alone are read.
//   - Mutable-bitmap: deletes reach older disk components in place through
//     their bitmaps, so each overlapping disk component is read on its own.
//     Memtables carry no bitmaps: among the memory sources, reading one
//     means reading every newer one, because a version frozen by an
//     in-flight flush may be superseded by a newer version or anti-matter
//     in a later frozen memtable or the live one. (Deletes of keys living in
//     frozen memtables reach the built component's bitmap through the flush
//     batch; until the install, the newer anti-matter is the only evidence.)
//
// Every read is one reconciled scan of the picked sources that hides
// anti-matter and invalidated entries; a one-component scan has nothing to
// reconcile. emit is called once per matching record, in primary-key order
// within each read: under Mutable-bitmap that is a run per disk component,
// oldest first, then one for the memtables. A record read from a
// disk component is the pinned buffer-cache page's bytes, valid only until
// emit returns. The scan's iterator and source lists live in a recycled
// scratch.
func FilterScan(ds *core.Dataset, lo, hi int64, emit func(kv.Entry)) error {
	sc := getScratch()
	defer sc.release()
	return sc.filterScan(ds, lo, hi, emit)
}

func (sc *scratch) filterScan(ds *core.Dataset, lo, hi int64, emit func(kv.Entry)) error {
	extract := ds.Config().FilterExtract
	strategy := ds.Config().Strategy
	// One atomic view: a concurrent flush's frozen memtable stays visible
	// as a source newer than every disk component (see Tree.ReadView). It
	// stays pinned until the scan returns, so a merge installing meanwhile
	// cannot take the components' files away.
	v := ds.Primary().ReadView()
	defer v.Release()

	check := func(e kv.Entry) {
		if extract != nil {
			if v, ok := extract(e.Value); !ok || v < lo || v > hi {
				return
			}
		}
		emit(e)
	}

	follow := strategy == core.Validation || strategy == core.DeletedKey
	perComponent := strategy == core.MutableBitmap
	read := false // whether the source at hand is read
	for i, c := range v.Components {
		read = read && follow || !c.FilterDisjoint(lo, hi)
		if !read {
			continue
		}
		if !perComponent {
			sc.comps = append(sc.comps, c)
		} else if err := sc.reconciledScan(v.Components[i:i+1], nil, check); err != nil {
			return err
		}
	}
	if perComponent {
		follow, read = true, false
	}
	for i := 0; i <= len(v.Flushing); i++ {
		m := v.Mem
		if i < len(v.Flushing) {
			m = v.Flushing[i]
		}
		read = read && follow || memOverlaps(m, lo, hi)
		if read {
			sc.mems = append(sc.mems, m)
		}
	}
	return sc.reconciledScan(sc.comps, sc.mems, check)
}

// memOverlaps reports whether m's range filter overlaps [lo, hi]; a table
// without one overlaps when it holds anything.
func memOverlaps(m *memtable.Table, lo, hi int64) bool {
	if fmin, fmax, ok := m.Filter(); ok {
		return !(fmax < lo || fmin > hi)
	}
	return m.Len() > 0
}

// reconciledScan runs a full reconciled scan over the given disk components
// and memory components (each oldest to newest, either may be empty),
// hiding anti-matter and invalidated entries.
func (sc *scratch) reconciledScan(comps []*lsm.Component, mems []*memtable.Table, emit func(kv.Entry)) error {
	it := &sc.it
	if err := it.Open(lsm.IterOptions{
		Components:    comps,
		Flushing:      mems,
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
