// Package query implements the paper's query-processing machinery:
//
//   - Index-to-index navigation (Section 3.2): fetching primary-index
//     records for a list of primary keys with the batched point lookup,
//     lsm.View.Lookup (the naive sorted algorithm is its one-key batch),
//     optionally with stateful B+-tree cursors; after Timestamp validation a
//     key probes only the component its timestamp names (the paper's pID).
//   - Query validation for the Validation strategy (Section 4.3, Figure 5):
//     Direct validation (fetch + re-check) and Timestamp validation (probe
//     the primary key index through the same lsm.View.Lookup).
//   - Primary-index scans with range-filter pruning (Sections 3, 4.2, 5):
//     one rule picks the sources, oldest to newest — a source is read when
//     its filter overlaps the predicate, or when an older one is read and
//     the strategy makes newer sources follow it — and one reconciled scan
//     reads them (FilterScan).
package query

import (
	"slices"

	"repro/internal/kv"
	"repro/internal/lsm"
	"repro/internal/metrics"
)

// LookupConfig selects the point-lookup optimizations of Section 3.2.
// The blocked-Bloom-filter optimization (bBF) is a property of the
// dataset's components, whose filters are bloom.V2 (core.Config.Bloom =
// bloom.KindV2); the remaining optimizations are per-query.
type LookupConfig struct {
	// BatchMemory bounds the memory holding one batch's fetched records
	// (16 MB in the paper's default configuration): a batch is
	// BatchMemory/recordSize sorted keys, at least one, so 0 is the naive
	// plan of one independent point lookup per key.
	BatchMemory int
	// Stateful uses stateful B+-tree lookup cursors with exponential
	// search instead of a root-to-leaf descent per key.
	Stateful bool
}

// recordSize estimates a fetched record's size for batch sizing (tweets
// are ~500 bytes).
const recordSize = 512

// DefaultLookupConfig returns the paper's fully optimized configuration.
// Component pruning has no setting: Timestamp validation turns it on.
func DefaultLookupConfig() LookupConfig {
	return LookupConfig{BatchMemory: 16 << 20, Stateful: true}
}

// Key is one primary key to fetch. TS, when not 0, is the timestamp of the
// key's newest version as Timestamp validation found it.
type Key struct {
	PK []byte
	TS int64
}

// fetchRecords retrieves the newest visible record for each key from the
// primary index through lsm.View.Lookup, invoking emit for each record
// found, with its cursors and flags in sc. Keys need not be sorted; they are
// sorted here (the classic fetch-list optimization). The order of emitted
// records follows the algorithm: primary-key order with one key per batch,
// batch-internal component order with more. A record read from a disk
// component is the pinned buffer-cache page's bytes, valid only until emit
// returns.
//
// A key with a TS is probed in memory and in the one disk component whose
// [MinTS, MaxTS] holds TS, where its version lives, so a Timestamp query
// returns the version it validated or a newer one. A key that pass does not
// emit (updated, flushed and bitmap-deleted since validation) is looked up
// again with nothing skipped. The fetch consumes the keys' TS fields.
func (sc *scratch) fetchRecords(primary *lsm.Tree, keys []Key, cfg LookupConfig, emit func(kv.Entry)) error {
	if len(keys) == 0 {
		return nil
	}
	primary.Env().ChargeSort(len(keys))
	slices.SortFunc(keys, func(a, b Key) int { return kv.Compare(a.PK, b.PK) })
	v := primary.ReadView()
	defer v.Release()
	// The second pass, if any, looks up the keys the first did not emit,
	// with their TS cleared: nothing is skipped, and nothing is left over.
	for {
		if err := v.Lookup(&sc.lookups, len(keys), max(cfg.BatchMemory/recordSize, 1), cfg.Stateful,
			func(i int) []byte { return keys[i].PK },
			func(i int, c *lsm.Component) bool {
				ts := keys[i].TS
				return ts != 0 && (ts < c.ID.MinTS || ts > c.ID.MaxTS) // another component holds it
			},
			func(i int, e kv.Entry, deleted bool) {
				if !e.Anti && !deleted {
					keys[i].TS = 0 // answered
					emit(e)
				}
			}); err != nil {
			return err
		}
		retry := keys[:0]
		for _, k := range keys {
			if k.TS != 0 {
				retry = append(retry, Key{PK: k.PK})
			}
		}
		if len(retry) == 0 {
			return nil
		}
		keys = retry
	}
}

// SortRecordsByPK sorts fetched records back into primary-key order
// (Figure 12d's "batching plus sorting" plan) and charges the sort.
func SortRecordsByPK(env *metrics.Env, records []kv.Entry) {
	env.ChargeSort(len(records))
	slices.SortFunc(records, func(a, b kv.Entry) int { return kv.Compare(a.Key, b.Key) })
}
