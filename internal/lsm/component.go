// Package lsm implements the LSM-tree underlying every index in the storage
// architecture of Section 3: a memory component (skiplist) plus a sequence
// of immutable disk components, each a bulk-loaded B+-tree with an optional
// Bloom filter on its keys, an optional range filter on a secondary filter
// key, and the per-component auxiliary state the paper's strategies need
// (repairedTS, immutable repair bitmaps, mutable validity bitmaps, deleted-
// key B+-trees). Merge scheduling is pluggable (tiering / leveling /
// correlated, Section 2.1 and Section 4.4).
//
// Every component file — flush, merge, the primary-key-index sibling of a
// Mutable-bitmap merge, deleted-key trees — is written by Builder. Which
// clock maintenance charges is a tree option, Options.Lane, set once when
// the tree is created; no build or merge takes a store.
package lsm

import (
	"sync/atomic"
	"time"

	"repro/internal/bitmap"
	"repro/internal/bloom"
	"repro/internal/btree"
	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// ID identifies a component by the (minTS, maxTS) timestamp range of the
// entries it holds, as in Figure 1. Timestamps come from the dataset's
// node-local ingestion clock.
type ID struct {
	MinTS int64
	MaxTS int64
}

// Overlaps reports whether two component ID ranges intersect.
func (id ID) Overlaps(other ID) bool {
	return id.MinTS <= other.MaxTS && other.MinTS <= id.MaxTS
}

// Component is one immutable disk component.
type Component struct {
	ID ID
	// Epoch range: flush epochs covered by this component. Flush produces
	// (e,e); merging components produces the union. The correlated merge
	// policy aligns components across a dataset's indexes by epoch.
	EpochMin, EpochMax uint64

	// BTree organizes the component's entries.
	BTree *btree.Reader
	// Bloom, when present, filters point lookups on the component's keys.
	Bloom bloom.Filter

	// Range filter on the dataset's filter key (Section 3): [FilterMin,
	// FilterMax] covers every record the component's entries may affect.
	FilterMin, FilterMax int64
	HasFilter            bool

	// RepairedTS is the repair watermark of a secondary-index component
	// (Section 4.4): entries have been validated against all primary-key-
	// index components with maxTS <= RepairedTS.
	RepairedTS int64

	// Obsolete is the immutable bitmap produced by index repair (Fig 7):
	// bit=1 entries are invalid and are dropped at the next merge.
	Obsolete *bitmap.Immutable

	// Valid is the mutable validity bitmap of the Mutable-bitmap strategy
	// (Section 5): bit=1 entries are deleted. Shared between the primary
	// index component and its primary-key-index sibling.
	Valid *bitmap.Mutable

	// DeletedKeys is the deleted-key B+-tree of the AsterixDB baseline
	// strategy (Section 4.1): primary keys deleted during this component's
	// in-memory lifetime.
	DeletedKeys      *btree.Reader
	DeletedKeysBloom bloom.Filter

	// Building points at the component currently being produced by a
	// flush/merge that includes this component, so Mutable-bitmap writers
	// can forward deletes (Figs 10 and 11). Managed by the dataset layer;
	// atomic because a builder publishes it while writers, which share no
	// lock with it at that point, read it.
	Building atomic.Pointer[BuildTarget]

	// refs counts the read states listing the component (see readState).
	refs atomic.Int32
}

// files lists the device files behind the component.
func (c *Component) files() []storage.FileID {
	ids := []storage.FileID{c.BTree.FileID()}
	if c.DeletedKeys != nil {
		ids = append(ids, c.DeletedKeys.FileID())
	}
	return ids
}

// BuildTarget is the handle writers use to forward deletes into a component
// under construction (Section 5.3). Exactly one of the two concurrency-
// control methods populates its fields.
type BuildTarget struct {
	// NewValid is the mutable bitmap of the new component, sized on
	// completion of the build; writers consult ScannedKey (Lock method)
	// or append to SideFile (Side-file method).
	mu         chan struct{} // 1-buffered mutex protecting ScannedKey/ordinals
	ScannedKey []byte
	// ordinals maps primary key -> ordinal in the new component, filled in
	// as the builder copies entries, so forwarded deletes can set bits.
	ordinals map[string]int64
	// NewValid is the new component's bitmap (Lock method sets bits here).
	NewValid *bitmap.Mutable
	// pending holds ordinals of deletes forwarded before the new
	// component's bitmap existed; applied by Publish.
	pending []int64
	// SideFile buffers deletes for the Side-file method; nil under Lock.
	SideFile *bitmap.SideFile
}

// NewBuildTarget creates an empty build handle.
func NewBuildTarget(sideFile bool) *BuildTarget {
	bt := &BuildTarget{
		mu:       make(chan struct{}, 1),
		ordinals: make(map[string]int64),
	}
	if sideFile {
		bt.SideFile = bitmap.NewSideFile()
	}
	return bt
}

func (bt *BuildTarget) lock()   { bt.mu <- struct{}{} }
func (bt *BuildTarget) unlock() { <-bt.mu }

// RecordCopied notes that key was copied to the new component at ordinal.
func (bt *BuildTarget) RecordCopied(key []byte, ordinal int64) {
	bt.lock()
	bt.ScannedKey = append(bt.ScannedKey[:0], key...)
	bt.ordinals[string(key)] = ordinal
	bt.unlock()
}

// ForwardDelete applies a delete of key to the new component if the builder
// has already passed it (Lock method, Fig 10 lines 6-7). It reports whether
// the delete was applied to the new component.
func (bt *BuildTarget) ForwardDelete(key []byte) bool {
	bt.lock()
	defer bt.unlock()
	if bt.ScannedKey == nil || kv.Compare(key, bt.ScannedKey) > 0 {
		return false // builder has not reached the key yet
	}
	ord, ok := bt.ordinals[string(key)]
	if !ok {
		return false
	}
	if bt.NewValid == nil {
		bt.pending = append(bt.pending, ord)
		return true
	}
	bt.NewValid.Set(ord)
	return true
}

// OrdinalOf returns the new-component ordinal of key, if copied.
func (bt *BuildTarget) OrdinalOf(key []byte) (int64, bool) {
	bt.lock()
	defer bt.unlock()
	ord, ok := bt.ordinals[string(key)]
	return ord, ok
}

// NumEntries returns the number of entries in the component.
func (c *Component) NumEntries() int64 { return c.BTree.NumEntries() }

// SizeBytes returns the on-disk size of the component.
func (c *Component) SizeBytes() int64 { return c.BTree.SizeBytes() }

// MayContain consults the component's Bloom filter (when present), charging
// the cost model for the hash and the cache lines touched.
func (c *Component) MayContain(env *metrics.Env, key []byte) bool {
	return ProbeBloom(env, c.Bloom, key)
}

// ProbeBloom asks f whether it may contain key — true when f is nil — and
// charges env for the probe: it counts the test (and a negative answer),
// and charges the hash, the cache lines touched and, for the blocked V2
// filter, the in-block probes after the first. Every Bloom probe of the
// engine goes through it: primary and secondary components' filters and
// the deleted-key trees'.
func ProbeBloom(env *metrics.Env, f bloom.Filter, key []byte) bool {
	if f == nil {
		return true
	}
	env.Counters.BloomTests.Add(1)
	env.Clock.Advance(env.CPU.Hash)
	ok, lines := f.MayContain(key)
	env.Clock.Advance(time.Duration(lines) * env.CPU.CacheLineMiss)
	if v2, isV2 := f.(*bloom.V2); isV2 {
		// One cache line: the in-block word probes after the first are
		// charged at register speed.
		env.Clock.Advance(time.Duration(v2.K()-1) * env.CPU.ProbeInBlock)
	}
	if !ok {
		env.Counters.BloomNegatives.Add(1)
	}
	return ok
}

// FilterDisjoint reports whether the component's range filter proves the
// component holds nothing in [lo, hi]. Components without a filter are
// never pruned.
func (c *Component) FilterDisjoint(lo, hi int64) bool {
	if !c.HasFilter {
		return false
	}
	return c.FilterMax < lo || c.FilterMin > hi
}

// Hidden reports whether the entry at ordinal is invisible to queries:
// marked obsolete by repair or deleted via the mutable bitmap. It makes a
// component a btree.Filter.
func (c *Component) Hidden(ordinal int64) bool {
	return c.Obsolete.IsSet(ordinal) || c.Valid.IsSet(ordinal)
}
