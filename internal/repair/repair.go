// Package repair implements background index repair for the Validation
// strategy (Section 4.4) plus the DELI-style "primary repair" baseline the
// paper compares against (Section 6.5).
//
// Merge repair follows Figure 7: while a merge streams a secondary index's
// entries into the new component, each entry's (primary key, timestamp,
// position) is fed to a sorter; the sorted keys are then validated against
// the primary key index, and invalid positions are recorded in an immutable
// bitmap attached to the new component. Standalone repair validates a
// single component in place, producing only a new bitmap. Both feed one
// tuple pipeline (validator.add, then validator.validate), whose point
// lookups are lsm.View.Lookup, the loop Timestamp validation uses, and both
// prune primary-key-index components with maxTS <= the component's
// repairedTS.
package repair

import (
	"slices"

	"repro/internal/bitmap"
	"repro/internal/kv"
	"repro/internal/lsm"
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

// validator collects one repair's tuples (add) and answers, for each, "does
// the primary key index hold this key with a larger timestamp?" against a
// pruned snapshot of the primary key index (validate).
type validator struct {
	env      *metrics.Env
	view     lsm.View
	useBloom bool
	// repairedTS prunes the primary-key-index components with maxTS <= it.
	repairedTS int64
	comps      []*lsm.Component // unpruned, oldest to newest
	tuples     []tuple
	keys       kv.Arena // the tuples' primary keys, copied out of the pages
	// newRepairedTS is the repair watermark after this operation: the
	// maximum timestamp covered by the examined components and memory.
	newRepairedTS int64
}

// newValidator pins a view of the primary key index, pruning disk
// components with maxTS <= repairedTS (Fig 6), with room for the tuples of
// the repaired components, which hold entries entries. The caller releases
// the validator when the repair is over.
func newValidator(pkIndex *lsm.Tree, repairedTS int64, entries int64, opts Options) *validator {
	view := pkIndex.ReadView()
	v := &validator{env: pkIndex.Env(), view: view, useBloom: opts.UseBloom, repairedTS: repairedTS, newRepairedTS: repairedTS,
		tuples: make([]tuple, 0, entries)}
	for _, c := range view.Components {
		if c.ID.MaxTS <= repairedTS {
			continue // pruned
		}
		v.comps = append(v.comps, c)
		v.newRepairedTS = max(v.newRepairedTS, c.ID.MaxTS)
	}
	for _, m := range view.Flushing {
		_, maxTS := m.ID()
		v.newRepairedTS = max(v.newRepairedTS, maxTS)
	}
	_, memMaxTS := view.Mem.ID()
	v.newRepairedTS = max(v.newRepairedTS, memMaxTS)
	return v
}

// release releases the validator's view.
func (v *validator) release() { v.view.Release() }

// add feeds one secondary-index entry at ordinal to the sorter: the merge's
// OnEntry and the standalone scan's loop body. Anti-matter is skipped, and
// so, with UseBloom, is a key that no unpruned component may hold.
func (v *validator) add(e kv.Entry, ordinal int64) {
	if e.Anti {
		return
	}
	pk, err := kv.PrimaryOf(e.Key)
	if err != nil {
		return
	}
	if v.useBloom && !v.mayContainAny(pk) {
		// Bloom optimization (Section 4.4): the key was never updated
		// after this component's watermark; exclude it from sorting and
		// validation entirely.
		return
	}
	v.tuples = append(v.tuples, tuple{pk: v.keys.Copy(pk), ts: e.TS, pos: ordinal})
}

// numRecentKeys returns the total entry count of the unpruned components,
// used to decide between point lookups and a merge scan.
func (v *validator) numRecentKeys() int64 {
	n := int64(v.view.Mem.Len())
	for _, c := range v.comps {
		n += c.NumEntries()
	}
	for _, m := range v.view.Flushing {
		n += int64(m.Len())
	}
	return n
}

// mayContainAny reports whether any unpruned component's Bloom filter (or
// the memory component) may contain pk. Each memory table probed is charged
// one memtable operation, as every other memory probe is.
func (v *validator) mayContainAny(pk []byte) bool {
	v.env.ChargeMemtable()
	if _, ok := v.view.Mem.Get(pk); ok {
		return true
	}
	for i := len(v.view.Flushing) - 1; i >= 0; i-- {
		v.env.ChargeMemtable()
		if _, ok := v.view.Flushing[i].Get(pk); ok {
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

// validate sorts the added tuples by primary key, charging the sort, and
// marks in bm the positions of those whose primary key exists in the
// snapshot with a larger timestamp, anti-matter included (a newer
// anti-matter also invalidates). Each distinct key is probed once through
// lsm.View.Lookup, one key per batch with stateful cursors; when the tuples
// outnumber the recently ingested keys, a merge scan replaces the per-key
// lookups (Section 4.4).
func (v *validator) validate(bm *bitmap.Immutable) error {
	tuples := v.tuples
	v.env.ChargeSort(len(tuples))
	slices.SortFunc(tuples, func(a, b tuple) int { return kv.Compare(a.pk, b.pk) })
	if len(tuples) == 0 {
		return nil
	}
	if int64(len(tuples)) > v.numRecentKeys() {
		return v.validateByMergeScan(tuples, bm)
	}
	// The j-th distinct key's tuples are tuples[firsts[j]:firsts[j+1]].
	var firsts []int
	for i := range tuples {
		if i == 0 || kv.Compare(tuples[i].pk, tuples[i-1].pk) != 0 {
			firsts = append(firsts, i)
		}
	}
	firsts = append(firsts, len(tuples))
	var lk lsm.Lookups
	return v.view.Lookup(&lk, len(firsts)-1, 1, true,
		func(j int) []byte { return tuples[firsts[j]].pk },
		func(_ int, c *lsm.Component) bool { return c.ID.MaxTS <= v.repairedTS },
		func(j int, e kv.Entry, _ bool) {
			for _, t := range tuples[firsts[j]:firsts[j+1]] {
				if e.TS > t.ts {
					bm.Set(t.pos)
				}
			}
		})
}

// validateByMergeScan walks the sorted tuples alongside one reconciled scan
// of the snapshot.
func (v *validator) validateByMergeScan(tuples []tuple, bm *bitmap.Immutable) error {
	// The snapshot reconciled so the newest version (anti-matter included)
	// wins; an entry stays valid until the following Next.
	it, err := lsm.NewMergedIterator(lsm.IterOptions{Components: v.comps, Flushing: v.view.Flushing, Mem: v.view.Mem})
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
