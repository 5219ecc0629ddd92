package core

import (
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/btree"
	"repro/internal/kv"
	"repro/internal/lsm"
	"repro/internal/obs"
	"repro/internal/repair"
)

// pairPrimaryPK enforces the Mutable-bitmap pairing invariant on freshly
// flushed primary and primary-key-index components: the two indexes flush
// together — one being empty while the other is not breaks the pairing —
// hold the same keys in the same order, and share one validity bitmap
// (Figure 9).
func pairPrimaryPK(primComp, pkComp *lsm.Component) error {
	if (primComp == nil) != (pkComp == nil) {
		return fmt.Errorf("core: primary/pk flush mismatch under mutable bitmaps")
	}
	if primComp != nil {
		if primComp.NumEntries() != pkComp.NumEntries() {
			return fmt.Errorf("core: primary/pk flush mismatch: %d vs %d entries",
				primComp.NumEntries(), pkComp.NumEntries())
		}
		pkComp.Valid = primComp.Valid
	}
	return nil
}

// attachDeletedEntries bulk-loads pk-sorted deleted-key entries into a
// deleted-key B+-tree attached to a freshly flushed component (Section
// 4.1's deleted-key B+-tree strategy; one copy per secondary), at flush and
// at merge alike. The build charges the maintenance lane; the reader is
// bound to the foreground store for queries.
func (d *Dataset) attachDeletedEntries(comp *lsm.Component, entries []kv.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	b := lsm.NewKeySetBuilder(d.bgStore, d.cfg.Store, len(entries))
	for _, e := range entries {
		if err := b.Add(e); err != nil {
			return err
		}
	}
	r, f, err := b.Finish()
	if err != nil {
		return err
	}
	comp.DeletedKeys = r
	comp.DeletedKeysBloom = f
	return nil
}

// mergeDue runs every merge the policy picks. merged reports whether it
// picked any: only then do the component lists differ from what the last
// manifest save recorded.
func (d *Dataset) mergeDue() (merged bool, err error) {
	if d.cfg.Policy == nil {
		return false, nil
	}
	if d.cfg.CorrelatedMerges {
		return d.mergeCorrelated()
	}
	// Each LSM-tree merges independently (Section 6.1).
	for {
		cand, ok := d.pickFor(d.primary)
		if !ok {
			break
		}
		merged = true
		if err := d.mergeTreeRange(d.primary, cand.Lo, cand.Hi, cand.Lo == 0); err != nil {
			return merged, err
		}
	}
	if d.pkIndex != nil {
		for {
			cand, ok := d.pickFor(d.pkIndex)
			if !ok {
				break
			}
			merged = true
			// Anti-matter is never dropped from the primary key index:
			// Timestamp validation and index repair rely on it as
			// evidence that a key was deleted.
			if err := d.mergeTreeRange(d.pkIndex, cand.Lo, cand.Hi, false); err != nil {
				return merged, err
			}
		}
	}
	for _, si := range d.secondaries {
		for {
			cand, ok := d.pickFor(si.Tree)
			if !ok {
				break
			}
			merged = true
			if err := d.mergeSecondaryRange(si, cand.Lo, cand.Hi); err != nil {
				return merged, err
			}
		}
	}
	return merged, nil
}

// pickFor asks the merge policy for tr's next merge, over the sizes of its
// components. It reuses the dataset's pick scratch and clears the component
// list afterwards, so no merged-away component stays reachable through it.
func (d *Dataset) pickFor(tr *lsm.Tree) (lsm.MergeCandidate, bool) {
	d.pickComps = tr.AppendComponents(d.pickComps[:0])
	d.pickSizes = d.pickSizes[:0]
	for _, c := range d.pickComps {
		d.pickSizes = append(d.pickSizes, c.SizeBytes())
	}
	clear(d.pickComps)
	return d.cfg.Policy.Pick(d.pickSizes)
}

// mergeCorrelated synchronizes merges across all of the dataset's indexes
// (the correlated merge policy of Section 4.4): the decision is made on the
// leader index and translated to every other index via flush-epoch ranges,
// so components of different indexes are always merged together.
func (d *Dataset) mergeCorrelated() (merged bool, err error) {
	leader := d.pkIndex
	if leader == nil {
		leader = d.primary
	}
	for {
		cand, ok := d.pickFor(leader)
		if !ok {
			return merged, nil
		}
		merged = true
		leaderComps := leader.Components()
		eMin := leaderComps[cand.Lo].EpochMin
		eMax := leaderComps[cand.Hi-1].EpochMax
		if err := d.mergeEpochRange(eMin, eMax); err != nil {
			return merged, err
		}
	}
}

// mergeEpochRange merges, in every index, the components whose epochs fall
// inside [eMin, eMax].
func (d *Dataset) mergeEpochRange(eMin, eMax uint64) error {
	if d.cfg.Strategy == MutableBitmap {
		if err := d.mergePrimaryAndPK(eMin, eMax); err != nil {
			return err
		}
	} else {
		if lo, hi, ok := epochRange(d.primary, eMin, eMax); ok {
			if err := d.mergeTreeRange(d.primary, lo, hi, lo == 0); err != nil {
				return err
			}
		}
		if d.pkIndex != nil {
			if lo, hi, ok := epochRange(d.pkIndex, eMin, eMax); ok {
				if err := d.mergeTreeRange(d.pkIndex, lo, hi, false); err != nil {
					return err
				}
			}
		}
	}
	for _, si := range d.secondaries {
		lo, hi, ok := epochRange(si.Tree, eMin, eMax)
		if !ok {
			continue
		}
		if err := d.mergeSecondaryRange(si, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// epochRange finds the component index range of tr covered by [eMin, eMax].
func epochRange(tr *lsm.Tree, eMin, eMax uint64) (lo, hi int, ok bool) {
	comps := tr.Components()
	lo, hi = -1, -1
	for i, c := range comps {
		if c.EpochMax < eMin || c.EpochMin > eMax {
			continue
		}
		if lo < 0 {
			lo = i
		}
		hi = i + 1
	}
	if lo < 0 || hi-lo < 2 {
		return 0, 0, false
	}
	return lo, hi, true
}

// mergeTreeRange merges [lo, hi) of one tree with no strategy extras.
func (d *Dataset) mergeTreeRange(tr *lsm.Tree, lo, hi int, dropAnti bool) error {
	op := d.cfg.Journal.Begin(obs.JMerge, tr.Name())
	res, err := tr.Merge(lsm.MergeSpec{Lo: lo, Hi: hi, DropAnti: dropAnti})
	if err != nil {
		op.End(0, hi-lo, 0, err)
		return err
	}
	err = tr.Install(res)
	op.End(res.Component.SizeBytes(), hi-lo, 1, err)
	return err
}

// mergeSecondaryRange merges a secondary index range, applying the
// strategy-specific cleanup: merge repair under Validation (when enabled),
// deleted-key filtering under DeletedKey.
func (d *Dataset) mergeSecondaryRange(si *SecondaryIndex, lo, hi int) error {
	switch {
	case (d.cfg.Strategy == Validation || d.cfg.Strategy == MutableBitmap) && d.cfg.MergeRepair && d.pkIndex != nil:
		op := d.cfg.Journal.Begin(obs.JMerge, si.Spec.Name)
		bytes, err := repair.MergeRepair(si.Tree, d.pkIndex, lo, hi,
			repair.Options{UseBloom: d.cfg.RepairBloomOpt})
		op.End(bytes, hi-lo, 1, err)
		return err
	case d.cfg.Strategy == DeletedKey:
		op := d.cfg.Journal.Begin(obs.JMerge, si.Spec.Name)
		bytes, err := d.mergeDeletedKeyRange(si, lo, hi)
		op.End(bytes, hi-lo, 1, err)
		return err
	default:
		return d.mergeTreeRange(si.Tree, lo, hi, lo == 0)
	}
}

// mergeDeletedKeyRange merges secondary components under the deleted-key
// B+-tree strategy: an entry is dropped when a strictly newer component in
// the merge carries its primary key in its deleted-key B+-tree, and the new
// component receives the union of the inputs' deleted-key trees. Each
// deleted-key probe costs a point lookup, which is why this strategy's
// merges are expensive (Section 4.1). It returns the merged component's
// size in bytes.
func (d *Dataset) mergeDeletedKeyRange(si *SecondaryIndex, lo, hi int) (int64, error) {
	// Pinned: the merge probes and scans the inputs' deleted-key trees.
	view := si.Tree.ReadView()
	defer view.Release()
	comps := view.Components
	if lo < 0 || hi > len(comps) || lo >= hi {
		return 0, lsm.ErrBadMergeRange
	}
	inputs := comps[lo:hi]
	env := d.bgStore.Env()
	// Deleted-key probes during the merge charge the maintenance lane.
	dkReaders := make([]*btree.Reader, len(inputs))
	for i, c := range inputs {
		if c.DeletedKeys == nil {
			continue
		}
		dkReaders[i] = c.DeletedKeys.CloneFor(d.bgStore)
	}
	deletedIn := func(pk []byte, newerThan int) bool {
		for i := newerThan + 1; i < len(inputs); i++ {
			c := inputs[i]
			if dkReaders[i] == nil {
				continue
			}
			if !lsm.ProbeBloom(env, c.DeletedKeysBloom, pk) {
				continue
			}
			//lsm:allow-discard a failed deleted-key probe reads as "not deleted", the conservative answer: the entry is kept, never wrongly dropped
			if _, found, _ := dkReaders[i].Get(pk, nil); found {
				return true
			}
		}
		return false
	}
	res, err := si.Tree.Merge(lsm.MergeSpec{
		Lo: lo, Hi: hi,
		DropAnti: lo == 0,
		EntryFilter: func(item lsm.MergedItem) bool {
			if item.Entry.Anti {
				return true
			}
			pk, err := kv.PrimaryOf(item.Entry.Key)
			if err != nil {
				return true
			}
			// The merge scans exactly inputs, so an item's rank is its
			// component's index there.
			return !deletedIn(pk, item.Rank)
		},
	})
	if err != nil {
		return 0, err
	}
	// Union the deleted-key trees into the merged component.
	if err := d.unionDeletedKeys(res.Component, inputs); err != nil {
		si.Tree.Discard(res.Component)
		return 0, err
	}
	return res.Component.SizeBytes(), si.Tree.Install(res)
}

// unionDeletedKeys bulk-loads the union of the inputs' deleted-key trees,
// keeping each key's newest deletion timestamp, charging the maintenance
// lane.
func (d *Dataset) unionDeletedKeys(dst *lsm.Component, inputs []*lsm.Component) error {
	merged := make(map[string]int64)
	for _, c := range inputs {
		if c.DeletedKeys == nil {
			continue
		}
		if err := newestDeleted(c.DeletedKeys.CloneFor(d.bgStore), merged); err != nil {
			return err
		}
	}
	return d.attachDeletedEntries(dst, sortedDeleted(merged))
}

// newestDeleted folds every (key, timestamp) of the deleted-key tree dk into
// merged, keeping the newest timestamp per key. Like the merge's own inputs,
// dk is read once and deleted at install, so it streams past the buffer
// cache.
func newestDeleted(dk *btree.Reader, merged map[string]int64) error {
	scan, err := dk.NewStreamedScan()
	if err != nil {
		return err
	}
	defer scan.Close()
	for {
		e, _, ok, err := scan.Next()
		if err != nil || !ok {
			return err
		}
		if old, seen := merged[string(e.Key)]; !seen || e.TS > old {
			merged[string(e.Key)] = e.TS
		}
	}
}

// mergePrimaryAndPK performs the Mutable-bitmap strategy's synchronized
// merge (Section 5): one pass over the primary components builds both the
// new primary component and its key-only primary-key-index sibling, which
// share one validity bitmap. Concurrent writers are handled by the
// configured concurrency-control method (Figures 10 and 11).
func (d *Dataset) mergePrimaryAndPK(eMin, eMax uint64) error {
	pLo, pHi, ok := epochRange(d.primary, eMin, eMax)
	if !ok {
		return nil
	}
	kLo, kHi, ok := epochRange(d.pkIndex, eMin, eMax)
	if !ok {
		return nil
	}
	_, err := d.MergePrimaryRange(pLo, pHi, kLo, kHi)
	return err
}

// MergePrimaryRange is exported for the Figure 23 concurrency experiments:
// it merges primary components [pLo, pHi) and the matching primary-key-
// index components [kLo, kHi) under the configured CC method, with writers
// allowed to run concurrently.
func (d *Dataset) MergePrimaryRange(pLo, pHi, kLo, kHi int) (*lsm.Component, error) {
	op := d.cfg.Journal.Begin(obs.JMerge, "primary+pk")
	comp, err := d.mergePrimaryPKRange(pLo, pHi, kLo, kHi)
	var bytes int64
	if comp != nil {
		bytes = comp.SizeBytes()
	}
	// The synchronized merge consumes the primary and pk-index runs and
	// produces one paired component of each.
	op.End(bytes, (pHi-pLo)+(kHi-kLo), 2, err)
	return comp, err
}

func (d *Dataset) mergePrimaryPKRange(pLo, pHi, kLo, kHi int) (*lsm.Component, error) {
	primComps := d.primary.Components()[pLo:pHi]
	pkComps := d.pkIndex.Components()[kLo:kHi]
	pkGen := d.pkIndex.InstallGen()

	var spec lsm.MergeSpec
	spec.Lo, spec.Hi = pLo, pHi
	// Anti-matter is retained even at the bottom: the primary-key-index
	// sibling is built from the same entry stream and Timestamp validation
	// needs deletion evidence there. Bitmap-deleted records themselves are
	// physically dropped, as every merge drops them.
	spec.DropAnti = false

	// Writers locate old versions through the PK INDEX (Figs 10b, 11b), so
	// the "old component points to new component" hook must be visible on
	// the pk-index components as well as the primary ones; both share the
	// same keys, ordinals, and bitmaps, so one build target serves both.
	setPKBuilding := func(bt *lsm.BuildTarget) {
		for _, c := range pkComps {
			c.Building.Store(bt)
		}
	}

	var target *lsm.BuildTarget
	switch d.cfg.CC {
	case Lock:
		// Fig 10: the builder S-locks every scanned key and re-checks its
		// bitmap under the lock; writers forward deletes past ScannedKey.
		target = lsm.NewBuildTarget(false)
		spec.Target = target
		setPKBuilding(target)
		spec.LockKey = func(key []byte) func() {
			d.locks.Lock(key, lockShared)
			return func() { d.locks.Unlock(key, lockShared) }
		}
	case SideFile:
		// Fig 11: drain writers, snapshot bitmaps, then build against the
		// snapshots; concurrent deletes buffer in the side-file.
		target = lsm.NewBuildTarget(true)
		spec.Target = target
		snaps := make(map[*lsm.Component]*bitmap.Immutable, len(primComps))
		d.dsLock.Drain(func() {
			// Drain in-flight writers, snapshot the shared bitmaps, and
			// expose the build target in one atomic step (Fig 11a,
			// initialization phase).
			for _, c := range primComps {
				snaps[c] = c.Valid.Snapshot()
			}
			setPKBuilding(target)
		})
		spec.Snapshots = snaps
	case NoCC:
		// Baseline: no protection (only valid without concurrent writers).
	}

	// Build the key-only pk-index sibling in the same pass.
	var upper int64
	for _, c := range primComps {
		upper += c.NumEntries()
	}
	pkBuilder := d.pkIndex.NewBuilder(int(upper))
	spec.OnEntry = func(e kv.Entry, ordinal int64) {
		//lsm:allow-discard a failed Add aborts the sibling build and Finish below returns its error
		pkBuilder.Add(kv.Entry{Key: e.Key, TS: e.TS, Anti: e.Anti})
	}

	res, err := d.primary.Merge(spec)
	if err != nil {
		pkBuilder.Abort()
		return nil, err
	}
	pkReader, pkBloom, err := pkBuilder.Finish()
	if err != nil {
		d.primary.Discard(res.Component)
		return nil, err
	}
	newPrim := res.Component

	// Side-file catch-up phase (Fig 11a lines 11-16): close the side-file
	// under the dataset lock, sort it, and apply the deletes to the new
	// component's bitmap.
	if d.cfg.CC == SideFile {
		var deleted [][]byte
		d.dsLock.Drain(func() { deleted = target.SideFile.Close() })
		d.bgStore.Env().ChargeSort(len(deleted))
		for _, pk := range deleted {
			if ord, ok := target.OrdinalOf(pk); ok {
				newPrim.Valid.Set(ord)
			}
		}
	}

	pkComp := &lsm.Component{
		ID:       newPrim.ID,
		EpochMin: newPrim.EpochMin,
		EpochMax: newPrim.EpochMax,
		BTree:    pkReader,
		Bloom:    pkBloom,
		Valid:    newPrim.Valid, // shared bitmap
	}
	// The two installs are one atomic step with respect to Crash: the
	// primary component and its pk-index sibling share one bitmap, so a
	// failure must never observe one installed without the other. The pk
	// run is replaced by identity, tolerating components appended by
	// concurrent flushes.
	d.crashMu.Lock()
	defer d.crashMu.Unlock()
	if err := d.primary.Install(res); err != nil {
		d.pkIndex.Discard(pkComp)
		return nil, err
	}
	if err := d.pkIndex.ReplaceRun(pkComps, pkComp, pkGen); err != nil {
		return nil, err
	}
	return newPrim, nil
}
