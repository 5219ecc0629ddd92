package lsm

import (
	"slices"

	"repro/internal/btree"
	"repro/internal/kv"
	"repro/internal/memtable"
	"repro/internal/metrics"
)

// Lookups is the reusable working memory of View.Lookup: one cursor per
// component and the found flags. A zero Lookups is ready to use; Reset it
// before it is kept past the view, so it references no component.
type Lookups struct {
	cursors []btree.LookupCursor
	found   []bool
}

// Reset drops every cursor's reference to its component's reader and keeps
// only the memory. The cursors are cleared to their capacity, not their
// length: a later lookup may use fewer components than an earlier one did.
func (lk *Lookups) Reset() {
	clear(lk.cursors[:cap(lk.cursors)])
}

// Lookup is the batched point lookup of Section 3.2 over n sorted keys
// (key(i) is the i-th) against the view: the keys are split into batches
// of batchKeys; within a batch the memory components and then each disk
// component, newest to oldest, are probed for every key not yet found, so
// each component's leaf pages are read in monotone order, and a batch ends
// early once every key is found. Each component has one cursor for the
// whole call, so a stateful cursor carries its leaf from batch to batch.
// skip(i, c) prunes component c for key i; found(i, e, deleted) receives
// key i's newest entry, anti-matter included, deleted when the component's
// mutable bitmap marks it. A key found nowhere gets no call. Every key
// counts one point lookup for its memory probe; each disk probe counts its
// own, in its cursor. It is the one sorted point-lookup loop: the record
// fetch, Timestamp validation and index repair's validation use it.
func (v View) Lookup(lk *Lookups, n, batchKeys int, stateful bool,
	key func(i int) []byte,
	skip func(i int, c *Component) bool,
	found func(i int, e kv.Entry, deleted bool)) error {
	env := v.t.env
	comps := v.Components
	cursors := lk.lookupCursors(comps, stateful)
	defer closeCursors(cursors)

	done := lk.foundFlags(n)
	for start := 0; start < n; start += batchKeys {
		end := min(start+batchKeys, n)
		remaining := end - start
		for i := start; i < end; i++ {
			env.Counters.PointLookups.Add(1)
			if e, ok := memGet(env, v.Mem, v.Flushing, key(i)); ok {
				done[i] = true
				remaining--
				found(i, e, false)
			}
		}
		for ci := len(comps) - 1; ci >= 0 && remaining > 0; ci-- {
			c := comps[ci]
			for i := start; i < end; i++ {
				if done[i] || skip(i, c) || !c.MayContain(env, key(i)) {
					continue
				}
				e, ord, ok, err := cursors[ci].Lookup(key(i))
				if err != nil {
					return err
				}
				if ok {
					done[i] = true
					remaining--
					found(i, e, c.Valid.IsSet(ord))
				}
			}
		}
	}
	return nil
}

// memGet probes the live memory component and then the frozen flushing
// memtables newest-first, charging one memtable operation per table probed.
func memGet(env *metrics.Env, mem *memtable.Table, flushing []*memtable.Table, pk []byte) (kv.Entry, bool) {
	env.ChargeMemtable()
	if e, ok := mem.Get(pk); ok {
		return e, true
	}
	for i := len(flushing) - 1; i >= 0; i-- {
		env.ChargeMemtable()
		if e, ok := flushing[i].Get(pk); ok {
			return e, true
		}
	}
	return kv.Entry{}, false
}

// lookupCursors returns one cursor per component, in the reused slice; the
// caller closes them (closeCursors) before the next lookup.
func (lk *Lookups) lookupCursors(comps []*Component, stateful bool) []btree.LookupCursor {
	cursors := slices.Grow(lk.cursors[:0], len(comps))
	for _, c := range comps {
		cursors = append(cursors, c.BTree.NewLookupCursor(stateful))
	}
	lk.cursors = cursors
	return cursors
}

// closeCursors releases every cursor's pinned leaf.
func closeCursors(cursors []btree.LookupCursor) {
	for i := range cursors {
		cursors[i].Close()
	}
}

// foundFlags returns n false flags in the reused slice.
func (lk *Lookups) foundFlags(n int) []bool {
	if cap(lk.found) < n {
		lk.found = make([]bool, n)
	}
	found := lk.found[:n]
	clear(found)
	return found
}
