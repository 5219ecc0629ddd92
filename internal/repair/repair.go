// Package repair implements background index repair for the Validation
// strategy (Section 4.4) plus the DELI-style "primary repair" baseline the
// paper compares against (Section 6.5).
//
// Merge repair follows Figure 7: while a merge streams a secondary index's
// entries into the new component, each entry's (primary key, timestamp,
// position) is fed to a sorter; the sorted keys are then validated against
// the primary key index, and invalid positions are recorded in an immutable
// bitmap attached to the new component. Standalone repair validates a
// single component in place, producing only a new bitmap. Both prune
// primary-key-index components with maxTS <= the component's repairedTS.
package repair

import (
	"repro/internal/bitmap"
	"repro/internal/btree"
	"repro/internal/kv"
	"repro/internal/lsm"
	"repro/internal/memtable"
	"repro/internal/metrics"
)

// Options tunes a repair operation.
type Options struct {
	// UseBloom enables the Section 4.4 Bloom filter optimization: keys
	// whose Bloom tests are negative in every unpruned primary-key-index
	// component are excluded from sorting and validation. Only effective
	// under a correlated merge policy, which guarantees the unpruned
	// components are strictly newer than the repairing component.
	UseBloom bool
}

// tuple is one (primary key, timestamp, position) record fed to the sorter
// (Fig 7 line 6).
type tuple struct {
	pk  []byte
	ts  int64
	pos int64
}

// validator answers "does the primary key index hold this key with a larger
// timestamp?" against a pruned snapshot of the primary key index.
type validator struct {
	env  *metrics.Env
	view lsm.View
	mem  *memtable.Table
	// flushing holds the memory components frozen by in-flight flushes
	// (oldest to newest); they rank between mem and the disk components.
	flushing []*memtable.Table
	comps    []*lsm.Component // unpruned, oldest to newest
	cursors  []btree.LookupCursor
	// newRepairedTS is the repair watermark after this operation: the
	// maximum timestamp covered by the examined components and memory.
	newRepairedTS int64
}

// newValidator pins a view of the primary key index, pruning disk
// components with maxTS <= repairedTS (Fig 6). The caller releases the
// validator when the repair is over.
func newValidator(pkIndex *lsm.Tree, repairedTS int64) *validator {
	view := pkIndex.ReadView()
	v := &validator{env: pkIndex.Env(), view: view, mem: view.Mem, flushing: view.Flushing, newRepairedTS: repairedTS}
	for _, c := range view.Components {
		if c.ID.MaxTS <= repairedTS {
			continue // pruned
		}
		v.comps = append(v.comps, c)
		v.cursors = append(v.cursors, c.BTree.NewLookupCursor(true))
		if c.ID.MaxTS > v.newRepairedTS {
			v.newRepairedTS = c.ID.MaxTS
		}
	}
	if _, maxTS := v.mem.ID(); maxTS > v.newRepairedTS {
		v.newRepairedTS = maxTS
	}
	for _, m := range v.flushing {
		if _, maxTS := m.ID(); maxTS > v.newRepairedTS {
			v.newRepairedTS = maxTS
		}
	}
	return v
}

// release closes the validator's cursors and releases its view.
func (v *validator) release() {
	for i := range v.cursors {
		v.cursors[i].Close()
	}
	v.view.Release()
}

// numRecentKeys returns the total entry count of the unpruned components,
// used to decide between point lookups and a merge scan.
func (v *validator) numRecentKeys() int64 {
	var n int64
	for _, c := range v.comps {
		n += c.NumEntries()
	}
	n += int64(v.mem.Len())
	for _, m := range v.flushing {
		n += int64(m.Len())
	}
	return n
}

// mayContainAny reports whether any unpruned component's Bloom filter (or
// the memory component) may contain pk.
func (v *validator) mayContainAny(pk []byte) bool {
	if _, ok := v.mem.Get(pk); ok {
		return true
	}
	for i := len(v.flushing) - 1; i >= 0; i-- {
		if _, ok := v.flushing[i].Get(pk); ok {
			return true
		}
	}
	for _, c := range v.comps {
		if c.MayContain(v.env, pk) {
			return true
		}
	}
	return false
}

// newestTS returns the timestamp of the newest entry for pk in the
// snapshot, anti-matter included (a newer anti-matter also invalidates).
func (v *validator) newestTS(pk []byte) (int64, bool) {
	if e, ok := v.mem.Get(pk); ok {
		return e.TS, true
	}
	for i := len(v.flushing) - 1; i >= 0; i-- {
		if e, ok := v.flushing[i].Get(pk); ok {
			return e.TS, true
		}
	}
	for i := len(v.comps) - 1; i >= 0; i-- {
		if !v.comps[i].MayContain(v.env, pk) {
			continue
		}
		e, _, found, err := v.cursors[i].Lookup(pk)
		if err == nil && found {
			return e.TS, true
		}
	}
	return 0, false
}

// validate marks in bm the positions of tuples whose primary key exists in
// the snapshot with a larger timestamp. Tuples must be sorted by pk.
// When the number of keys to validate exceeds the number of recently
// ingested keys, a merge scan replaces the per-key lookups (Section 4.4).
func (v *validator) validate(tuples []tuple, bm *bitmap.Immutable) error {
	if len(tuples) == 0 {
		return nil
	}
	if int64(len(tuples)) > v.numRecentKeys() {
		return v.validateByMergeScan(tuples, bm)
	}
	var lastPK []byte
	var lastTS int64
	var lastFound bool
	for i := range tuples {
		t := &tuples[i]
		if lastPK == nil || kv.Compare(t.pk, lastPK) != 0 {
			lastPK = t.pk
			lastTS, lastFound = v.newestTS(t.pk)
		}
		if lastFound && lastTS > t.ts {
			bm.Set(t.pos)
		}
	}
	return nil
}

// validateByMergeScan walks the sorted tuples alongside one reconciled scan
// of the snapshot.
func (v *validator) validateByMergeScan(tuples []tuple, bm *bitmap.Immutable) error {
	// The snapshot reconciled so the newest version (anti-matter included)
	// wins; an entry stays valid until the following Next.
	it, err := lsm.NewMergedIterator(lsm.IterOptions{Components: v.comps, Flushing: v.flushing, Mem: v.mem})
	if err != nil {
		return err
	}
	defer it.Close()
	item, curOK, err := it.Next()
	if err != nil {
		return err
	}
	for i := 0; i < len(tuples); {
		if !curOK {
			break
		}
		c := kv.Compare(item.Entry.Key, tuples[i].pk)
		switch {
		case c < 0:
			if item, curOK, err = it.Next(); err != nil {
				return err
			}
		case c > 0:
			i++
		default:
			if item.Entry.TS > tuples[i].ts {
				bm.Set(tuples[i].pos)
			}
			i++
		}
	}
	return nil
}
