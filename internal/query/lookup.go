// Package query implements the paper's query-processing machinery:
//
//   - Index-to-index navigation (Section 3.2): fetching primary-index
//     records for a list of primary keys with the naive sorted algorithm or
//     the batched point lookup, optionally with stateful B+-tree cursors and
//     component-ID propagation (pID).
//   - Query validation for the Validation strategy (Section 4.3, Figure 5):
//     Direct validation (fetch + re-check) and Timestamp validation (probe
//     the primary key index).
//   - Primary-index scans with range-filter pruning (Sections 3, 5), whose
//     candidate-component rules differ per maintenance strategy.
package query

import (
	"slices"

	"repro/internal/kv"
	"repro/internal/lsm"
	"repro/internal/memtable"
	"repro/internal/metrics"
)

// LookupConfig selects the point-lookup optimizations of Section 3.2.
// The blocked-Bloom-filter optimization (bBF) is a property of how the
// dataset's components were built (core.Config.BlockedBloom); the remaining
// optimizations are per-query.
type LookupConfig struct {
	// Batched enables the batched point lookup: sorted keys are divided
	// into batches and, per batch, the LSM components are accessed one by
	// one from newest to oldest, so each component's pages are read in
	// monotone order.
	Batched bool
	// BatchMemory bounds the memory holding one batch's fetched records
	// (16 MB in the paper's default configuration).
	BatchMemory int
	// EstRecordSize estimates fetched-record size for batch sizing
	// (tweets are ~500 bytes).
	EstRecordSize int
	// Stateful uses stateful B+-tree lookup cursors with exponential
	// search instead of a root-to-leaf descent per key.
	Stateful bool
	// PropagateIDs prunes primary components that are strictly older than
	// the secondary component a key was found in (Jia's pID optimization).
	PropagateIDs bool
}

// DefaultLookupConfig returns the paper's fully optimized configuration.
func DefaultLookupConfig() LookupConfig {
	return LookupConfig{
		Batched:       true,
		BatchMemory:   16 << 20,
		EstRecordSize: 512,
		Stateful:      true,
	}
}

// Key is one primary key to fetch, tagged with the component ID of the
// secondary-index component it was found in (for pID pruning).
type Key struct {
	PK  []byte
	Src lsm.ID
}

// fetchRecords retrieves the newest visible record for each key from the
// primary index, invoking emit for each record found, with its cursors and
// flags in sc. Keys need not be sorted; they are sorted here (the classic
// fetch-list optimization), and with cfg.Batched the batched algorithm of
// Section 3.2 runs. The order of emitted records follows the algorithm
// (primary-key order without batching; batch-internal component order with
// it). A record read from a disk component is the pinned buffer-cache page's
// bytes, valid only until emit returns.
func (sc *scratch) fetchRecords(primary *lsm.Tree, keys []Key, cfg LookupConfig, emit func(kv.Entry)) error {
	if len(keys) == 0 {
		return nil
	}
	env := primary.Env()
	env.ChargeSort(len(keys))
	slices.SortFunc(keys, func(a, b Key) int { return kv.Compare(a.PK, b.PK) })

	if !cfg.Batched {
		return sc.fetchNaive(primary, keys, cfg, emit)
	}
	return sc.fetchBatched(primary, keys, cfg, emit)
}

// fetchNaive performs one independent point lookup per sorted key: memory
// component, then components newest to oldest, each guarded by its Bloom
// filter. Pages of different components interleave, which is exactly the
// random-I/O pattern batching avoids.
func (sc *scratch) fetchNaive(primary *lsm.Tree, keys []Key, cfg LookupConfig, emit func(kv.Entry)) error {
	env := primary.Env()
	v := primary.ReadView()
	defer v.Release()
	mem, flushing, comps := v.Mem, v.Flushing, v.Components
	cursors := sc.lookupCursors(comps, cfg.Stateful)
	defer closeCursors(cursors)
	for i := range keys {
		k := keys[i]
		env.Counters.PointLookups.Add(1)
		if e, ok := memGet(env, mem, flushing, k.PK); ok {
			if !e.Anti {
				emit(e)
			}
			continue
		}
		for ci := len(comps) - 1; ci >= 0; ci-- {
			c := comps[ci]
			if cfg.PropagateIDs && c.ID.MaxTS < k.Src.MinTS {
				continue // component too old to hold this version
			}
			if !c.MayContain(env, k.PK) {
				continue
			}
			e, ord, found, err := cursors[ci].Lookup(k.PK)
			if err != nil {
				return err
			}
			if !found {
				continue
			}
			if c.Valid.IsSet(ord) {
				break // deleted via mutable bitmap
			}
			if !e.Anti {
				emit(e)
			}
			break
		}
	}
	return nil
}

// fetchBatched implements the batched point lookup (Section 3.2): sorted
// keys are split into batches sized by BatchMemory; within a batch the
// memory component and then each disk component (newest to oldest) are
// probed for every not-yet-found key, so each component's leaf pages are
// accessed in monotone order. A batch terminates early once every key is
// found.
func (sc *scratch) fetchBatched(primary *lsm.Tree, keys []Key, cfg LookupConfig, emit func(kv.Entry)) error {
	env := primary.Env()
	v := primary.ReadView()
	defer v.Release()
	mem, flushing, comps := v.Mem, v.Flushing, v.Components

	est := cfg.EstRecordSize
	if est <= 0 {
		est = 512
	}
	batchKeys := 1
	if cfg.BatchMemory > 0 {
		batchKeys = cfg.BatchMemory / est
	}
	if batchKeys < 1 {
		batchKeys = 1
	}

	found := sc.foundFlags(len(keys))
	for start := 0; start < len(keys); start += batchKeys {
		end := start + batchKeys
		if end > len(keys) {
			end = len(keys)
		}
		batch := keys[start:end]
		bfound := found[start:end]
		remaining := len(batch)

		// Memory components first (newest), then the frozen ones being
		// flushed, newest to oldest.
		for i := range batch {
			env.Counters.PointLookups.Add(1)
			if e, ok := memGet(env, mem, flushing, batch[i].PK); ok {
				bfound[i] = true
				remaining--
				if !e.Anti {
					emit(e)
				}
			}
		}
		// Disk components newest to oldest; a fresh stateful cursor per
		// component per batch keeps page access monotone.
		for ci := len(comps) - 1; ci >= 0 && remaining > 0; ci-- {
			c := comps[ci]
			cur := c.BTree.NewLookupCursor(cfg.Stateful)
			for i := range batch {
				if bfound[i] {
					continue
				}
				if cfg.PropagateIDs && c.ID.MaxTS < batch[i].Src.MinTS {
					continue
				}
				if !c.MayContain(env, batch[i].PK) {
					continue
				}
				e, ord, ok, err := cur.Lookup(batch[i].PK)
				if err != nil {
					cur.Close()
					return err
				}
				if !ok {
					continue
				}
				bfound[i] = true
				remaining--
				if c.Valid.IsSet(ord) {
					continue // deleted via mutable bitmap
				}
				if !e.Anti {
					emit(e)
				}
			}
			cur.Close()
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

// SortRecordsByPK sorts fetched records back into primary-key order
// (Figure 12d's "batching plus sorting" plan) and charges the sort.
func SortRecordsByPK(env *metrics.Env, records []kv.Entry) {
	env.ChargeSort(len(records))
	slices.SortFunc(records, func(a, b kv.Entry) int { return kv.Compare(a.Key, b.Key) })
}
