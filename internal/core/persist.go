package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/bloom"
	"repro/internal/lsm"
	"repro/internal/storage"
	"repro/internal/storage/filedev"
	"repro/internal/wal"
)

// This file implements durable persistence on top of a storage.Durable
// (Dataset.durable): after every component install (flush or merge)
// the dataset snapshots its component metadata into a small manifest and
// hands it to the device, whose SaveManifest syncs the data files first and
// then replaces the manifest atomically — and only then are the files of
// merged-away components unlinked and the log segments the install covers
// dropped. Reopening a directory restores the component lists from the
// manifest and garbage-collects files a crash left half-installed or
// half-reclaimed; the log replay that follows (openLog) rebuilds the memory
// components, on files as on the simulated device. On the simulated device
// every manifest hook here is a no-op.

// manifestVersion guards the on-disk manifest schema.
const manifestVersion = 1

// Reserved tree names of the primary and primary-key indexes in the
// manifest (secondary trees use their declared names).
const (
	manifestPrimary = "primary"
	manifestPKIndex = "pk-index"
)

type manifest struct {
	Version  int
	Strategy string
	PageSize int
	Epoch    uint64
	Clock    int64
	Trees    []treeManifest
}

type treeManifest struct {
	Name       string
	Components []componentManifest
}

type componentManifest struct {
	File            uint64
	MinTS           int64
	MaxTS           int64
	EpochMin        uint64
	EpochMax        uint64
	FilterMin       int64  `json:",omitempty"`
	FilterMax       int64  `json:",omitempty"`
	HasFilter       bool   `json:",omitempty"`
	RepairedTS      int64  `json:",omitempty"`
	Obsolete        []byte `json:",omitempty"`
	Valid           []byte `json:",omitempty"`
	SharedValid     bool   `json:",omitempty"`
	DeletedKeysFile uint64 `json:",omitempty"`
	// Bloom is the component's marshalled bloom.V2 filter. Only the v2
	// runtime filter persists; the paper's cost-model variants stay
	// in-memory and are rebuilt by scan at reopen. Older manifests simply
	// lack the field, which is the same fallback.
	Bloom []byte `json:",omitempty"`
}

// Persist snapshots every tree's component list into the device manifest
// and then gives back what that manifest no longer names: the files of
// retired components are unlinked only here, after SaveManifest returned
// nil. A failed save deletes nothing (the caller wedges the shard), so
// whatever manifest a crash finds, every file it names exists; files it does
// not name are the reopen sweep's. On a non-durable device there is no
// manifest to wait for and retired files go at once. The snapshot is taken
// under crashMu, so it can never observe half of a multi-tree install (a
// flush batch or a paired primary/pk merge); saves are serialized so a
// later snapshot is never overwritten by an earlier one.
func (d *Dataset) Persist() error {
	d.persistMu.Lock()
	defer d.persistMu.Unlock()
	if d.durable != nil {
		d.crashMu.Lock()
		m := d.buildManifest()
		d.crashMu.Unlock()
		data, err := json.Marshal(m)
		if err != nil {
			return err
		}
		named := m.files()
		if d.unsafeEarlyUnlink.Load() {
			d.reclaimLocked(named)
		}
		if err := d.durable.SaveManifest(data); err != nil {
			return err
		}
		d.named = named
	}
	d.reclaimLocked(d.named)
	return nil
}

// reclaimLocked unlinks every retired component file that named — the file
// set of the durable manifest — does not hold; the rest go back on their
// tree's queue for the Persist that drops their name. persistMu must be held.
//
// The unlink goes to the device, past the buffer cache: pages of a dead file
// age out of the LRU as they did when the file was never deleted. File IDs
// are never reused, so they are only stale — and dropping them eagerly
// would change what the cache evicts next, and with it every simulated
// figure.
func (d *Dataset) reclaimLocked(named map[storage.FileID]bool) {
	dev := d.cfg.Store.Device()
	for _, tr := range d.allTrees() {
		var keep []storage.FileID
		for _, id := range tr.TakeRetired() {
			if named[id] {
				keep = append(keep, id)
			} else {
				dev.Delete(id)
			}
		}
		tr.Retire(keep)
	}
}

// reclaim is the maintenance job a late reader schedules: the last pin on a
// merged-away component was released after the Persist that dropped its
// name, so no later Persist is owed.
func (d *Dataset) reclaim() {
	d.persistMu.Lock()
	d.reclaimLocked(d.named)
	d.persistMu.Unlock()
}

// files lists every device file the manifest names.
func (m manifest) files() map[storage.FileID]bool {
	named := make(map[storage.FileID]bool)
	for _, tm := range m.Trees {
		for _, cm := range tm.Components {
			named[storage.FileID(cm.File)] = true
			if cm.DeletedKeysFile != 0 {
				named[storage.FileID(cm.DeletedKeysFile)] = true
			}
		}
	}
	return named
}

func (d *Dataset) buildManifest() manifest {
	m := manifest{
		Version:  manifestVersion,
		Strategy: d.cfg.Strategy.String(),
		PageSize: d.cfg.Store.PageSize(),
		Epoch:    d.epoch.Load(),
		Clock:    d.clock.Load(),
	}
	m.Trees = append(m.Trees, d.treeManifest(manifestPrimary, d.primary, false))
	if d.pkIndex != nil {
		// Under mutable bitmaps the pk sibling shares the primary
		// component's bitmap; mark it shared instead of double-storing.
		m.Trees = append(m.Trees, d.treeManifest(manifestPKIndex, d.pkIndex, d.cfg.Strategy == MutableBitmap))
	}
	for _, si := range d.secondaries {
		m.Trees = append(m.Trees, d.treeManifest(si.Spec.Name, si.Tree, false))
	}
	return m
}

func (d *Dataset) treeManifest(name string, tr *lsm.Tree, sharedValid bool) treeManifest {
	tm := treeManifest{Name: name}
	for _, c := range tr.Components() {
		obsolete, repairedTS := tr.RepairState(c)
		cm := componentManifest{
			File:       uint64(c.BTree.FileID()),
			MinTS:      c.ID.MinTS,
			MaxTS:      c.ID.MaxTS,
			EpochMin:   c.EpochMin,
			EpochMax:   c.EpochMax,
			FilterMin:  c.FilterMin,
			FilterMax:  c.FilterMax,
			HasFilter:  c.HasFilter,
			RepairedTS: repairedTS,
			Obsolete:   obsolete.Marshal(),
		}
		if sharedValid {
			cm.SharedValid = c.Valid != nil
		} else {
			cm.Valid = c.Valid.Marshal()
		}
		if c.DeletedKeys != nil {
			cm.DeletedKeysFile = uint64(c.DeletedKeys.FileID())
		}
		// Filters are immutable once a component is installed, so the
		// marshal below races with nothing.
		if v2, ok := c.Bloom.(*bloom.V2); ok {
			cm.Bloom = v2.Marshal()
		}
		tm.Components = append(tm.Components, cm)
	}
	return tm
}

// restore wires a freshly opened dataset to a durable device: restore the
// manifest's component lists and garbage-collect files a crash left
// unreferenced (half-built components whose install never reached the
// manifest). On a non-durable device it is a no-op.
func (d *Dataset) restore() error {
	dev := d.durable
	if dev == nil {
		return nil
	}
	data, err := dev.LoadManifest()
	if err != nil {
		return err
	}
	d.named = make(map[storage.FileID]bool)
	if data != nil {
		if err := d.restoreManifest(data, d.named); err != nil {
			return err
		}
	}
	// Drop every file the manifest does not reference: components a crash
	// caught mid-install (data synced, manifest never written) and
	// components a merge retired whose unlink the crash beat.
	for _, id := range dev.List() {
		if !d.named[id] {
			d.cfg.Store.Delete(id)
		}
	}
	return nil
}

// openLog opens the write-ahead log over the device's log area, replays
// the records past the maximum durable component timestamp — rebuilding the
// memory components a previous process lost — and starts the session's
// live segment. The segments found are replayed and then left alone —
// never appended to, never rewritten, torn tails included — until the
// first flush of this session cuts them with everything else it covers.
// The group syncs the device as Open found it, wrapped or raw, so an
// injected SyncWAL fault reaches the covering group fsync.
func (d *Dataset) openLog() error {
	if d.cfg.DisableWAL {
		return nil
	}
	dev := d.cfg.Store.Device()
	d.log = wal.Open(d.env, dev, filedev.NewGroupSyncer(dev, d.env.Counters))
	d.log.SetYield(d.cfg.Yield)
	if err := d.Recover(); err != nil {
		return fmt.Errorf("core: replay of the WAL failed: %w", err)
	}
	_, err := d.log.Rotate()
	return err
}

// restoreManifest rebuilds every tree's component list from the manifest,
// validating that the dataset was reopened with a compatible configuration,
// and records every referenced file ID.
func (d *Dataset) restoreManifest(data []byte, referenced map[storage.FileID]bool) error {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("core: corrupt manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return fmt.Errorf("core: manifest version %d is not supported", m.Version)
	}
	if m.Strategy != d.cfg.Strategy.String() {
		return fmt.Errorf("core: reopen with strategy %s, but the directory was written with %s", d.cfg.Strategy, m.Strategy)
	}
	if m.PageSize != d.cfg.Store.PageSize() {
		return fmt.Errorf("core: reopen with page size %d, but the directory was written with %d", d.cfg.Store.PageSize(), m.PageSize)
	}
	byName := make(map[string]treeManifest, len(m.Trees))
	for _, tm := range m.Trees {
		byName[tm.Name] = tm
	}
	expected := map[string]*lsm.Tree{manifestPrimary: d.primary}
	if d.pkIndex != nil {
		expected[manifestPKIndex] = d.pkIndex
	}
	for _, si := range d.secondaries {
		expected[si.Spec.Name] = si.Tree
	}
	for name := range byName {
		if expected[name] == nil {
			return fmt.Errorf("core: the directory holds index %q, which the reopen configuration does not declare", name)
		}
	}
	for name := range expected {
		if _, ok := byName[name]; !ok {
			return fmt.Errorf("core: reopen declares index %q, which the directory does not hold", name)
		}
	}

	primComps, err := d.restoreTree(d.primary, byName[manifestPrimary], referenced)
	if err != nil {
		return err
	}
	if d.pkIndex != nil {
		pkComps, err := d.restoreTree(d.pkIndex, byName[manifestPKIndex], referenced)
		if err != nil {
			return err
		}
		// Re-link the pairing invariant: a pk component marked SharedValid
		// shares its primary sibling's validity bitmap (Figure 9).
		primByID := make(map[lsm.ID]*lsm.Component, len(primComps))
		for _, c := range primComps {
			primByID[c.ID] = c
		}
		for i, cm := range byName[manifestPKIndex].Components {
			if !cm.SharedValid {
				continue
			}
			sib := primByID[pkComps[i].ID]
			if sib == nil || sib.Valid == nil {
				return fmt.Errorf("core: manifest pairs pk component (%d,%d) with a missing primary bitmap", pkComps[i].ID.MinTS, pkComps[i].ID.MaxTS)
			}
			pkComps[i].Valid = sib.Valid
		}
	}
	for _, si := range d.secondaries {
		if _, err := d.restoreTree(si.Tree, byName[si.Spec.Name], referenced); err != nil {
			return err
		}
	}
	d.epoch.Store(m.Epoch)
	// The clock must stay ahead of every timestamp ever issued: the
	// manifest records it as of the last install, and WAL replay bumps it
	// past any newer committed record.
	clock := m.Clock
	for _, tm := range m.Trees {
		for _, cm := range tm.Components {
			if cm.MaxTS > clock {
				clock = cm.MaxTS
			}
		}
	}
	d.clock.Store(clock)
	return nil
}

func (d *Dataset) restoreTree(tr *lsm.Tree, tm treeManifest, referenced map[storage.FileID]bool) ([]*lsm.Component, error) {
	images := make([]lsm.RestoredComponent, len(tm.Components))
	for i, cm := range tm.Components {
		obsolete, err := bitmap.UnmarshalImmutable(cm.Obsolete)
		if err != nil {
			return nil, fmt.Errorf("core: manifest of %s: %w", tm.Name, err)
		}
		valid, err := bitmap.UnmarshalMutable(cm.Valid)
		if err != nil {
			return nil, fmt.Errorf("core: manifest of %s: %w", tm.Name, err)
		}
		images[i] = lsm.RestoredComponent{
			ID:              lsm.ID{MinTS: cm.MinTS, MaxTS: cm.MaxTS},
			EpochMin:        cm.EpochMin,
			EpochMax:        cm.EpochMax,
			File:            storage.FileID(cm.File),
			FilterMin:       cm.FilterMin,
			FilterMax:       cm.FilterMax,
			HasFilter:       cm.HasFilter,
			RepairedTS:      cm.RepairedTS,
			Obsolete:        obsolete,
			Valid:           valid,
			DeletedKeysFile: storage.FileID(cm.DeletedKeysFile),
			Bloom:           cm.Bloom,
		}
		referenced[storage.FileID(cm.File)] = true
		if cm.DeletedKeysFile != 0 {
			referenced[storage.FileID(cm.DeletedKeysFile)] = true
		}
	}
	return tr.Restore(images)
}
