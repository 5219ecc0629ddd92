package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/bitmap"
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
//
// A component file describes itself — its B+-tree's shape and its
// bloom.V2 filter's pages are in its meta page (lsm.Builder) — so the
// manifest holds only what names the files and what changes after a
// component is built: repair watermarks and bitmaps. It is one binary
// record, every integer big-endian:
//
//	header     magic "LSMM", version u16, strategy (u8 length, name),
//	           page size u32, epoch u64, clock i64, tree count u16
//	tree       name (u16 length, name), component count u32, components
//	component  file u64, minTS i64, maxTS i64, epochMin u64, epochMax u64,
//	           filterMin i64, filterMax i64, repairedTS i64,
//	           deleted-key file u64, flags u8 (manifestRangeFilter,
//	           manifestSharedValid), then the Obsolete and the Valid bitmap,
//	           each a u32 length and the bitmap's AppendTo bytes
//	trailer    CRC32C (Castagnoli) of everything before it, u32
//
// Persist appends it straight from the trees into a buffer the dataset
// keeps, so a save allocates nothing once the buffers have grown.

// manifestVersion numbers the manifest record. Version 1 was a JSON
// document carrying every component's Bloom filter; nothing reads it.
const manifestVersion = 2

const manifestMagic = "LSMM"

// Component flags: the component has a range filter (Component.HasFilter),
// and its Valid bitmap is its primary sibling's.
const (
	manifestRangeFilter = 1 << 0
	manifestSharedValid = 1 << 1
)

// Reserved tree names of the primary and primary-key indexes in the
// manifest (secondary trees use their declared names, of at most
// maxTreeName bytes: the record gives a name a u16 length).
const (
	manifestPrimary = "primary"
	manifestPKIndex = "pk-index"
	maxTreeName     = 1<<16 - 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// namedTree is one LSM index of the dataset under its manifest name.
type namedTree struct {
	name string
	tree *lsm.Tree
	// sharedValid marks the pk sibling of a Mutable-bitmap primary index:
	// its components share the primary's validity bitmaps (Figure 9), so
	// the manifest marks them instead of storing them twice.
	sharedValid bool
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
		clear(d.naming)
		d.crashMu.Lock()
		d.manifest = d.appendManifest(d.manifest[:0], d.naming)
		d.crashMu.Unlock()
		if d.unsafeEarlyUnlink.Load() {
			d.reclaimLocked(d.naming)
		}
		if err := d.durable.SaveManifest(d.manifest); err != nil {
			return err
		}
		d.named, d.naming = d.naming, d.named
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
	for _, nt := range d.trees {
		d.retired = nt.tree.TakeRetired(d.retired[:0])
		keep := d.retired[:0]
		for _, id := range d.retired {
			if named[id] {
				keep = append(keep, id)
			} else {
				dev.Delete(id)
			}
		}
		nt.tree.Retire(keep)
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

// appendManifest appends the manifest record of the dataset's current
// component lists to dst and adds every file it names to named. crashMu
// and persistMu must be held.
func (d *Dataset) appendManifest(dst []byte, named map[storage.FileID]bool) []byte {
	be := binary.BigEndian
	dst = append(dst, manifestMagic...)
	dst = be.AppendUint16(dst, manifestVersion)
	strategy := d.cfg.Strategy.String()
	dst = append(dst, byte(len(strategy)))
	dst = append(dst, strategy...)
	dst = be.AppendUint32(dst, uint32(d.cfg.Store.PageSize()))
	dst = be.AppendUint64(dst, d.epoch.Load())
	dst = be.AppendUint64(dst, uint64(d.clock.Load()))
	dst = be.AppendUint16(dst, uint16(len(d.trees)))
	for _, nt := range d.trees {
		dst = be.AppendUint16(dst, uint16(len(nt.name)))
		dst = append(dst, nt.name...)
		d.comps = nt.tree.AppendComponents(d.comps[:0])
		dst = be.AppendUint32(dst, uint32(len(d.comps)))
		for _, c := range d.comps {
			dst = appendComponent(dst, nt, c, named)
		}
		clear(d.comps) // hold no component past the save
	}
	return be.AppendUint32(dst, crc32.Checksum(dst, castagnoli))
}

// appendComponent appends c's record to dst and adds its files to named.
func appendComponent(dst []byte, nt namedTree, c *lsm.Component, named map[storage.FileID]bool) []byte {
	be := binary.BigEndian
	obsolete, repairedTS := nt.tree.RepairState(c)
	file := c.BTree.FileID()
	named[file] = true
	var deletedKeys storage.FileID
	if c.DeletedKeys != nil {
		deletedKeys = c.DeletedKeys.FileID()
		named[deletedKeys] = true
	}
	var flags byte
	if c.HasFilter {
		flags |= manifestRangeFilter
	}
	valid := c.Valid
	if nt.sharedValid {
		if valid != nil {
			flags |= manifestSharedValid
		}
		valid = nil
	}
	dst = be.AppendUint64(dst, uint64(file))
	dst = be.AppendUint64(dst, uint64(c.ID.MinTS))
	dst = be.AppendUint64(dst, uint64(c.ID.MaxTS))
	dst = be.AppendUint64(dst, c.EpochMin)
	dst = be.AppendUint64(dst, c.EpochMax)
	dst = be.AppendUint64(dst, uint64(c.FilterMin))
	dst = be.AppendUint64(dst, uint64(c.FilterMax))
	dst = be.AppendUint64(dst, uint64(repairedTS))
	dst = be.AppendUint64(dst, uint64(deletedKeys))
	dst = append(dst, flags)
	// Each bitmap goes behind its length, filled in once it is appended.
	at := len(dst)
	dst = obsolete.AppendTo(be.AppendUint32(dst, 0))
	be.PutUint32(dst[at:], uint32(len(dst)-at-4))
	at = len(dst)
	dst = valid.AppendTo(be.AppendUint32(dst, 0))
	be.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// manifestImage is a decoded manifest record.
type manifestImage struct {
	strategy string
	pageSize int
	epoch    uint64
	clock    int64
	trees    []manifestTree
}

// manifestTree is one tree of a decoded manifest: its components oldest to
// newest, and which of them share their primary sibling's validity bitmap.
type manifestTree struct {
	name        string
	comps       []lsm.RestoredComponent
	sharedValid []bool
}

// errCorruptManifest reports a manifest record that does not decode.
var errCorruptManifest = errors.New("core: corrupt manifest")

// decodeManifest decodes a manifest record. Any input that is not one —
// a flipped bit fails the checksum — is an error wrapping
// errCorruptManifest (or naming an unknown version), never a panic.
func decodeManifest(data []byte) (manifestImage, error) {
	var m manifestImage
	be := binary.BigEndian
	if len(data) < len(manifestMagic)+2+4 {
		return m, fmt.Errorf("%w: %d bytes", errCorruptManifest, len(data))
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, castagnoli) != be.Uint32(data[len(body):]) {
		return m, fmt.Errorf("%w: checksum mismatch", errCorruptManifest)
	}
	if string(body[:len(manifestMagic)]) != manifestMagic {
		return m, fmt.Errorf("%w: bad magic", errCorruptManifest)
	}
	if v := be.Uint16(body[len(manifestMagic):]); v != manifestVersion {
		return m, fmt.Errorf("core: manifest version %d is not supported", v)
	}
	r := manifestReader{b: body[len(manifestMagic)+2:]}
	m.strategy = string(r.next(int(r.uint(1))))
	m.pageSize = int(r.uint(4))
	m.epoch = r.uint(8)
	m.clock = int64(r.uint(8))
	trees := int(r.uint(2))
	seen := make(map[string]bool, trees)
	for range trees {
		t := manifestTree{name: string(r.next(int(r.uint(2))))}
		if r.err == nil && seen[t.name] {
			r.err = fmt.Errorf("tree %q listed twice", t.name)
		}
		seen[t.name] = true
		// Grown by append, not sized by the count: a corrupt count runs
		// out of bytes after a few records instead of allocating.
		for n := r.uint(4); n > 0 && r.err == nil; n-- {
			im, shared := r.component()
			t.comps = append(t.comps, im)
			t.sharedValid = append(t.sharedValid, shared)
		}
		if r.err != nil {
			break
		}
		m.trees = append(m.trees, t)
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return manifestImage{}, fmt.Errorf("%w: %w", errCorruptManifest, r.err)
	}
	return m, nil
}

// ManifestFiles lists the component and deleted-key files a saved manifest
// names, for tools that copy a live directory (crash images) and must know
// whether their copy holds every file the copied manifest needs.
func ManifestFiles(data []byte) ([]storage.FileID, error) {
	m, err := decodeManifest(data)
	if err != nil {
		return nil, err
	}
	var files []storage.FileID
	for _, t := range m.trees {
		for _, im := range t.comps {
			files = append(files, im.File)
			if im.DeletedKeysFile != 0 {
				files = append(files, im.DeletedKeysFile)
			}
		}
	}
	return files, nil
}

// manifestReader decodes fields front to back; the first field that runs
// past the end sets err, and every later read returns zeros.
type manifestReader struct {
	b   []byte
	err error
}

var errShortManifest = errors.New("record ends early")

// next reads the next n bytes.
func (r *manifestReader) next(n int) []byte {
	if r.err == nil && n > len(r.b) {
		r.err = errShortManifest
	}
	if r.err != nil {
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// uint reads an n-byte big-endian unsigned integer.
func (r *manifestReader) uint(n int) uint64 {
	var v uint64
	for _, c := range r.next(n) {
		v = v<<8 | uint64(c)
	}
	return v
}

// component decodes one component record (see appendComponent).
func (r *manifestReader) component() (lsm.RestoredComponent, bool) {
	im := lsm.RestoredComponent{File: storage.FileID(r.uint(8))}
	im.ID.MinTS = int64(r.uint(8))
	im.ID.MaxTS = int64(r.uint(8))
	im.EpochMin = r.uint(8)
	im.EpochMax = r.uint(8)
	im.FilterMin = int64(r.uint(8))
	im.FilterMax = int64(r.uint(8))
	im.RepairedTS = int64(r.uint(8))
	im.DeletedKeysFile = storage.FileID(r.uint(8))
	flags := r.uint(1)
	im.HasFilter = flags&manifestRangeFilter != 0
	obsolete := r.next(int(r.uint(4)))
	valid := r.next(int(r.uint(4)))
	if r.err != nil {
		return im, false
	}
	if flags&^(manifestRangeFilter|manifestSharedValid) != 0 {
		r.err = fmt.Errorf("unknown component flags %#x", flags)
		return im, false
	}
	if im.Obsolete, r.err = bitmap.UnmarshalImmutable(obsolete); r.err != nil {
		return im, false
	}
	im.Valid, r.err = bitmap.UnmarshalMutable(valid)
	return im, flags&manifestSharedValid != 0
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
	d.named, d.naming = make(map[storage.FileID]bool), make(map[storage.FileID]bool)
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
	m, err := decodeManifest(data)
	if err != nil {
		return err
	}
	if m.strategy != d.cfg.Strategy.String() {
		return fmt.Errorf("core: reopen with strategy %s, but the directory was written with %s", d.cfg.Strategy, m.strategy)
	}
	if m.pageSize != d.cfg.Store.PageSize() {
		return fmt.Errorf("core: reopen with page size %d, but the directory was written with %d", d.cfg.Store.PageSize(), m.pageSize)
	}
	byName := make(map[string]manifestTree, len(m.trees))
	for _, ti := range m.trees {
		byName[ti.name] = ti
	}
	for name := range byName {
		if !slices.ContainsFunc(d.trees, func(nt namedTree) bool { return nt.name == name }) {
			return fmt.Errorf("core: the directory holds index %q, which the reopen configuration does not declare", name)
		}
	}
	for _, nt := range d.trees {
		if _, ok := byName[nt.name]; !ok {
			return fmt.Errorf("core: reopen declares index %q, which the directory does not hold", nt.name)
		}
	}

	var primComps []*lsm.Component
	for _, nt := range d.trees {
		ti := byName[nt.name]
		for _, im := range ti.comps {
			referenced[im.File] = true
			if im.DeletedKeysFile != 0 {
				referenced[im.DeletedKeysFile] = true
			}
		}
		comps, err := nt.tree.Restore(ti.comps)
		if err != nil {
			return err
		}
		if nt.tree == d.primary {
			primComps = comps
		}
		if !nt.sharedValid {
			continue
		}
		// Re-link the pairing invariant: a pk component marked SharedValid
		// shares its primary sibling's validity bitmap (Figure 9).
		primByID := make(map[lsm.ID]*lsm.Component, len(primComps))
		for _, c := range primComps {
			primByID[c.ID] = c
		}
		for i, shared := range ti.sharedValid {
			if !shared {
				continue
			}
			sib := primByID[comps[i].ID]
			if sib == nil || sib.Valid == nil {
				return fmt.Errorf("core: manifest pairs pk component (%d,%d) with a missing primary bitmap", comps[i].ID.MinTS, comps[i].ID.MaxTS)
			}
			comps[i].Valid = sib.Valid
		}
	}
	d.epoch.Store(m.epoch)
	// The clock must stay ahead of every timestamp ever issued: the
	// manifest records it as of the last install, and WAL replay bumps it
	// past any newer committed record.
	clock := m.clock
	for _, ti := range m.trees {
		for _, im := range ti.comps {
			clock = max(clock, im.ID.MaxTS)
		}
	}
	d.clock.Store(clock)
	return nil
}
