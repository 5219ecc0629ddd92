package repair

import (
	"repro/internal/bitmap"
	"repro/internal/kv"
	"repro/internal/lsm"
)

// MergeRepair merges the secondary-index component range [lo, hi) while
// repairing the result (Fig 7): entries stream into the new component, their
// (pkey, ts, position) tuples are sorted and validated against the primary
// key index, and invalid positions are recorded in the new component's
// immutable bitmap. The merged component's repairedTS advances to the
// maximum timestamp of the unpruned primary-key-index components. The merge
// charges sec's lane; validation lookups charge the primary key index's
// readers. It returns the merged component's size in bytes.
func MergeRepair(sec, pkIndex *lsm.Tree, lo, hi int, opts Options) (int64, error) {
	comps := sec.Components()
	if lo < 0 || hi > len(comps) || lo >= hi {
		return 0, lsm.ErrBadMergeRange
	}
	// The merged component's starting watermark is the weakest (minimum)
	// of the inputs': entries from any input may be stale past it.
	repairedTS, entries := comps[lo].RepairedTS, int64(0)
	for _, c := range comps[lo:hi] {
		if c.RepairedTS < repairedTS {
			repairedTS = c.RepairedTS
		}
		entries += c.NumEntries()
	}
	v := newValidator(pkIndex, repairedTS, entries, opts)
	defer v.release()
	res, err := sec.Merge(lsm.MergeSpec{Lo: lo, Hi: hi, DropAnti: lo == 0, OnEntry: v.add})
	if err != nil {
		return 0, err
	}
	bm := bitmap.NewImmutable(res.Component.NumEntries())
	if err := v.validate(bm); err != nil {
		sec.Discard(res.Component)
		return 0, err
	}
	res.Component.Obsolete = bm
	res.Component.RepairedTS = v.newRepairedTS
	return res.Component.SizeBytes(), sec.Install(res)
}

// StandaloneRepair validates one secondary-index component in place,
// producing only a fresh immutable bitmap (Section 4.4): no merge output is
// written. Scheduled independently of merges (e.g. during off-peak hours).
// The caller keeps comp's files in place (a pinned view of sec, or no
// concurrent merges).
func StandaloneRepair(sec, pkIndex *lsm.Tree, comp *lsm.Component, opts Options) error {
	v := newValidator(pkIndex, comp.RepairedTS, comp.NumEntries(), opts)
	defer v.release()

	scan, err := comp.BTree.NewScan(nil, nil)
	if err != nil {
		return err
	}
	defer scan.Close()
	bm := bitmap.NewImmutable(comp.NumEntries())
	for {
		e, ordinal, ok, err := scan.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if comp.Obsolete.IsSet(ordinal) {
			bm.Set(ordinal) // carried forward: earlier repairs are not forgotten
		} else {
			v.add(e, ordinal)
		}
	}
	if err := v.validate(bm); err != nil {
		return err
	}
	sec.SetObsolete(comp, bm, v.newRepairedTS)
	return nil
}

// RepairAll standalone-repairs every disk component of a secondary index.
func RepairAll(sec, pkIndex *lsm.Tree, opts Options) error {
	view := sec.ReadView()
	defer view.Release()
	for _, comp := range view.Components {
		if err := StandaloneRepair(sec, pkIndex, comp, opts); err != nil {
			return err
		}
	}
	return nil
}

// SecondaryTarget names one secondary index for primary repair, together
// with the key extractor needed to synthesize anti-matter from old records.
type SecondaryTarget struct {
	Tree *lsm.Tree
	// Extract returns the secondary key of a record.
	Extract func(record []byte) ([]byte, bool)
	// PutAnti inserts a cleanup anti-matter entry (routed through the
	// dataset so memory accounting stays correct).
	PutAnti func(sk, pk []byte, ts int64)
}

// PrimaryRepair is the DELI baseline (Section 6.5, "primary repair"): scan
// the primary index's disk components; whenever multiple records share a
// primary key, produce anti-matter entries for the obsolete versions to
// clean up every secondary index. With withMerge set, the scanned
// components are also merged into one as a by-product; otherwise they are
// left as-is and only the anti-matter is produced.
//
// Unlike secondary repair, this reads full records (the paper's point: the
// I/O volume scales with record size, Figure 21).
func PrimaryRepair(primary *lsm.Tree, targets []SecondaryTarget, withMerge bool, repairTS int64) error {
	view := primary.ReadView()
	defer view.Release()
	comps := view.Components
	if len(comps) == 0 {
		return nil
	}
	// Iterate all versions (no reconciliation) so older duplicates are
	// observed next to the newest version of each key.
	it, err := lsm.NewMergedIterator(lsm.IterOptions{
		Components:    comps,
		NoReconcile:   true,
		SkipInvisible: true,
	})
	if err != nil {
		return err
	}
	defer it.Close()
	// The newest version outlives the iterator steps over its older ones,
	// so its key and value are copied out of the page.
	var (
		curKey  []byte
		newest  kv.Entry
		haveCur bool
	)
	emitObsolete := func(old kv.Entry) {
		if old.Anti {
			return
		}
		// The newest version may have a different secondary key (or be a
		// delete); clean up the old version's secondary entries.
		for _, tgt := range targets {
			oldSK, ok := tgt.Extract(old.Value)
			if !ok {
				continue
			}
			if !newest.Anti {
				if newSK, ok2 := tgt.Extract(newest.Value); ok2 && kv.Compare(oldSK, newSK) == 0 {
					continue
				}
			}
			tgt.PutAnti(oldSK, old.Key, repairTS)
		}
	}
	for {
		item, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		e := item.Entry
		if !haveCur || kv.Compare(e.Key, curKey) != 0 {
			curKey = append(curKey[:0], e.Key...)
			newest = kv.Entry{Key: curKey, Value: append(newest.Value[:0], e.Value...), TS: e.TS, Anti: e.Anti}
			haveCur = true
			continue
		}
		// Same key, older version (NoReconcile emits newest first).
		emitObsolete(e)
	}
	if withMerge {
		res, err := primary.Merge(lsm.MergeSpec{Lo: 0, Hi: len(comps), DropAnti: true})
		if err != nil {
			return err
		}
		return primary.Install(res)
	}
	return nil
}
