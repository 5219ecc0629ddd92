package lsm

import (
	"fmt"
	"slices"

	"repro/internal/bitmap"
	"repro/internal/bloom"
	"repro/internal/btree"
	"repro/internal/storage"
)

// RestoredComponent is one persisted disk-component image read back from a
// durable device's manifest at reopen time. File contents (the bulk-loaded
// B+-tree pages and a bloom.V2 filter's pages) live on the device; this
// struct carries the metadata that the manifest persists alongside them.
type RestoredComponent struct {
	ID                 ID
	EpochMin, EpochMax uint64
	File               storage.FileID
	FilterMin          int64
	FilterMax          int64
	HasFilter          bool
	RepairedTS         int64
	// Obsolete is the persisted repair bitmap (nil when none).
	Obsolete *bitmap.Immutable
	// Valid is the persisted mutable validity bitmap (nil when the tree
	// does not use mutable bitmaps). For primary-key-index siblings the
	// caller shares the primary component's bitmap instead (see
	// Component.Valid's pairing invariant).
	Valid *bitmap.Mutable
	// DeletedKeysFile is the component's deleted-key B+-tree file
	// (DeletedKey strategy); zero when none.
	DeletedKeysFile storage.FileID
}

// Restore rebuilds the tree's disk-component list from persisted images,
// oldest to newest: each component's B+-tree reader is reopened on the
// tree's store and the bloom.V2 filter its file carries decoded; a missing
// or corrupt one (or another flavor) is rebuilt by a sequential scan of the
// component's keys. Restore must run before the tree serves traffic; it
// replaces any existing disk components. It returns the installed
// components in list order so the caller can re-link cross-tree shared
// state (paired validity bitmaps).
func (t *Tree) Restore(images []RestoredComponent) ([]*Component, error) {
	comps := make([]*Component, 0, len(images))
	for _, im := range images {
		reader, err := btree.Open(t.opts.Store, im.File)
		if err != nil {
			return nil, fmt.Errorf("lsm: restore %s component file %d: %w", t.opts.Name, im.File, err)
		}
		c := &Component{
			ID:         im.ID,
			EpochMin:   im.EpochMin,
			EpochMax:   im.EpochMax,
			BTree:      reader,
			FilterMin:  im.FilterMin,
			FilterMax:  im.FilterMax,
			HasFilter:  im.HasFilter,
			RepairedTS: im.RepairedTS,
			Obsolete:   im.Obsolete,
			Valid:      im.Valid,
		}
		if t.opts.MutableBitmaps && c.Valid == nil {
			c.Valid = bitmap.NewMutable(reader.NumEntries())
		}
		if t.opts.BloomFPR > 0 {
			var f bloom.Filter
			if t.opts.Bloom == bloom.KindV2 {
				f = readBloom(reader)
			}
			if f == nil {
				rebuilt, err := rebuildBloom(reader, t.opts)
				if err != nil {
					return nil, err
				}
				f = rebuilt
			}
			c.Bloom = f
		}
		if im.DeletedKeysFile != 0 {
			dk, err := btree.Open(t.opts.Store, im.DeletedKeysFile)
			if err != nil {
				return nil, fmt.Errorf("lsm: restore %s deleted-key file %d: %w", t.opts.Name, im.DeletedKeysFile, err)
			}
			dkBloom, err := rebuildBloom(dk, keySetFilter)
			if err != nil {
				return nil, err
			}
			c.DeletedKeys = dk
			c.DeletedKeysBloom = dkBloom
		}
		comps = append(comps, c)
	}
	t.mu.Lock()
	t.publish(&readState{mem: t.cur.mem, flushing: t.cur.flushing, disk: slices.Clone(comps)})
	return comps, nil
}

// readBloom decodes the bloom.V2 filter r's file carries, or returns nil
// when it carries none or its pages do not read back as one: the caller
// then rebuilds the filter by scan.
func readBloom(r *btree.Reader) bloom.Filter {
	enc, err := r.AppendFilter(nil)
	if err != nil || len(enc) == 0 {
		return nil
	}
	v2, err := bloom.UnmarshalV2(enc)
	if err != nil {
		return nil
	}
	return v2
}

// rebuildBloom scans every key of a restored component (or deleted-key tree,
// with keySetFilter) into a fresh Bloom filter of the configured flavor. A
// Standard filter lives only in memory, so this scan is its normal reopen
// price; v2 trees reach here only when the component file carries no (or a
// corrupt) filter.
func rebuildBloom(r *btree.Reader, opts Options) (bloom.Filter, error) {
	filter, add := newFilter(opts, int(r.NumEntries()))
	if filter == nil {
		return nil, nil
	}
	scan, err := r.NewScan(nil, nil)
	if err != nil {
		return nil, err
	}
	defer scan.Close()
	for {
		e, _, ok, err := scan.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return filter, nil
		}
		add(e.Key)
	}
}

// RepairState returns a consistent (Obsolete, RepairedTS) pair for a
// component: SetObsolete installs both under the tree lock, so reading them
// under the same lock can never observe a new bitmap with an old watermark.
// The durable manifest snapshots repair state through this accessor.
func (t *Tree) RepairState(c *Component) (*bitmap.Immutable, int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return c.Obsolete, c.RepairedTS
}
