package lsm

import (
	"errors"

	"repro/internal/bitmap"
	"repro/internal/kv"
)

// MergeSpec describes one merge operation over the contiguous component
// range disk[Lo:Hi) (oldest to newest). Entries invalidated through the
// Obsolete or Valid bitmaps are physically removed (Sections 4.4
// and 5). The merge charges the tree's lane (see Options.Lane). The caller
// installs the result with Install (or ReplaceRun) once any post-processing
// (index repair, bitmap catch-up) has finished.
type MergeSpec struct {
	Lo, Hi int
	// DropAnti discards winning anti-matter entries; only safe when the
	// merge includes the tree's oldest component.
	DropAnti bool
	// Snapshots overrides components' live mutable bitmaps with immutable
	// snapshots (Side-file method, Fig 11: the build phase must not see
	// concurrent deletes).
	Snapshots map[*Component]*bitmap.Immutable
	// LockKey, when set, is invoked for every scanned key before its
	// visibility re-check and copy; the returned function releases the
	// lock (Lock method, Fig 10: S-lock per scanned key).
	LockKey func(key []byte) func()
	// Target, when set, lets concurrent writers forward deletes into the
	// component being built (Mutable-bitmap strategy, Section 5.3).
	Target *BuildTarget
	// EntryFilter, when set, may veto entries (deleted-key B+-tree
	// strategy cleanup). Called after visibility checks.
	EntryFilter func(item MergedItem) (keep bool)
	// OnEntry observes every entry added to the new component together
	// with its ordinal position (merge repair streams (pkey, ts, position)
	// to its sorter from here, Fig 7 line 6).
	OnEntry func(e kv.Entry, ordinal int64)
}

// MergeResult carries the built component before installation.
type MergeResult struct {
	Component *Component
	// Inputs are the merged components (located by identity at install
	// time, and used for repair accounting).
	Inputs []*Component
	// Lo, Hi echo the merged range.
	Lo, Hi int
	// gen is the install generation captured when the merge began; Install
	// abandons the result when the tree was reset since.
	gen uint64
}

// ErrBadMergeRange reports an invalid component range.
var ErrBadMergeRange = errors.New("lsm: bad merge range")

// Merge builds a new component from the given range. It does not install
// the result; see MergeResult. A failed merge leaves no new file.
func (t *Tree) Merge(spec MergeSpec) (*MergeResult, error) {
	// The pinned view keeps the inputs' files in place for the whole build,
	// whatever another merge retires meanwhile.
	v, gen := t.pin()
	defer v.Release()
	if spec.Lo < 0 || spec.Hi > len(v.Components) || spec.Lo >= spec.Hi {
		return nil, ErrBadMergeRange
	}
	inputs := v.Components[spec.Lo:spec.Hi:spec.Hi]

	// Expose the build target so concurrent writers can forward deletes.
	if spec.Target != nil {
		for _, c := range inputs {
			c.Building.Store(spec.Target)
		}
	}

	var upperBound int64
	for _, c := range inputs {
		upperBound += c.NumEntries()
	}

	b := t.NewBuilder(int(upperBound))
	// The inputs are read once and deleted at install, so their scans
	// stream past the buffer cache. Under LockKey they keep invisible
	// entries: visibility is checked under each key's lock instead. The
	// iterator is the builder's, so Finish and Abort close it.
	it := &b.merge
	if err := it.Open(IterOptions{
		Components:    inputs,
		HideAnti:      spec.DropAnti,
		SkipInvisible: spec.LockKey == nil,
		Snapshots:     spec.Snapshots,
		stream:        t.opts.Lane,
	}); err != nil {
		b.Abort()
		return nil, err
	}

	var (
		ordinal    int64
		hasAnti    bool
		fmin, fmax int64
		hasF       bool
	)
	widen := func(v int64) {
		if !hasF {
			fmin, fmax, hasF = v, v, true
			return
		}
		if v < fmin {
			fmin = v
		}
		if v > fmax {
			fmax = v
		}
	}
	for {
		item, ok, err := it.Next()
		if err != nil {
			b.Abort()
			return nil, err
		}
		if !ok {
			break
		}
		unlock := func() {}
		if spec.LockKey != nil {
			unlock = spec.LockKey(item.Entry.Key)
			// Re-check visibility under the lock (Fig 10 line 7): a
			// writer may have deleted the key since the scan peeked.
			if item.Comp != nil && !visibleWith(item.Comp, item.Ordinal, spec.Snapshots) {
				unlock()
				continue
			}
		}
		if spec.EntryFilter != nil && !spec.EntryFilter(item) {
			unlock()
			continue
		}
		e := item.Entry
		if err := b.Add(e); err != nil {
			unlock()
			b.Abort()
			return nil, err
		}
		if e.Anti {
			hasAnti = true
		} else if t.opts.FilterExtract != nil {
			if v, ok := t.opts.FilterExtract(e); ok {
				widen(v)
			}
		}
		if spec.Target != nil {
			spec.Target.RecordCopied(e.Key, ordinal)
		}
		if spec.OnEntry != nil {
			spec.OnEntry(e, ordinal)
		}
		unlock()
		ordinal++
	}

	reader, filter, err := b.Finish()
	if err != nil {
		return nil, err
	}
	comp := &Component{
		ID:       ID{MinTS: inputs[0].ID.MinTS, MaxTS: inputs[0].ID.MaxTS},
		EpochMin: inputs[0].EpochMin,
		EpochMax: inputs[0].EpochMax,
		BTree:    reader,
		Bloom:    filter,
	}
	comp.RepairedTS = inputs[0].RepairedTS
	for _, c := range inputs {
		// The merged component is only repaired as far as its least-
		// repaired input.
		if c.RepairedTS < comp.RepairedTS {
			comp.RepairedTS = c.RepairedTS
		}
		if c.ID.MinTS >= 0 && (comp.ID.MinTS < 0 || c.ID.MinTS < comp.ID.MinTS) {
			comp.ID.MinTS = c.ID.MinTS
		}
		if c.ID.MaxTS > comp.ID.MaxTS {
			comp.ID.MaxTS = c.ID.MaxTS
		}
		if c.EpochMin < comp.EpochMin {
			comp.EpochMin = c.EpochMin
		}
		if c.EpochMax > comp.EpochMax {
			comp.EpochMax = c.EpochMax
		}
	}
	// Range filter: recomputed from surviving records when possible; any
	// retained anti-matter forces widening to the union of the inputs so
	// queries still observe the deletes (Section 3.1's correctness rule).
	// Without an extractor the filter is the union of the inputs'.
	if hasAnti || t.opts.FilterExtract == nil {
		for _, c := range inputs {
			if c.HasFilter {
				widen(c.FilterMin)
				widen(c.FilterMax)
			}
		}
	}
	comp.FilterMin, comp.FilterMax, comp.HasFilter = fmin, fmax, hasF
	if t.opts.MutableBitmaps {
		comp.Valid = bitmap.NewMutable(reader.NumEntries())
	}
	if spec.Target != nil {
		spec.Target.Publish(comp.Valid)
	}
	return &MergeResult{Component: comp, Inputs: inputs, Lo: spec.Lo, Hi: spec.Hi, gen: gen}, nil
}

// visibleWith checks entry visibility honoring snapshot overrides.
func visibleWith(c *Component, ordinal int64, snaps map[*Component]*bitmap.Immutable) bool {
	if c.Obsolete.IsSet(ordinal) {
		return false
	}
	if snaps != nil {
		if snap, ok := snaps[c]; ok {
			return !snap.IsSet(ordinal)
		}
	}
	return !c.Valid.IsSet(ordinal)
}

// Install finalizes a merge: replaces the input run with the new component.
// The inputs are located by identity, so disk components appended by a
// concurrent flush do not disturb the install; a tree reset
// since the merge began abandons it with ErrStaleInstall. The inputs'
// Building pointers are deliberately left in place: a writer that
// snapshotted the component list just before the install may still forward
// a delete through them, and the published BuildTarget routes it to the new
// component's bitmap (closing the race the paper's "C points to C'" check
// addresses).
func (t *Tree) Install(res *MergeResult) error {
	return t.ReplaceRun(res.Inputs, res.Component, res.gen)
}

// Publish makes the new component's bitmap available to writers and applies
// deletes forwarded before the bitmap existed.
func (bt *BuildTarget) Publish(valid *bitmap.Mutable) {
	bt.lock()
	bt.NewValid = valid
	for _, ord := range bt.pending {
		if valid != nil {
			valid.Set(ord)
		}
	}
	bt.pending = nil
	bt.unlock()
}
