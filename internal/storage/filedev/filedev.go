// Package filedev implements storage.Durable — component pages, log area and
// manifest — on real files: the device every lsmstore.DB runs on, one per
// shard, under Options.Dir. The log area is the write-ahead log's only
// copy: recovery, in process or at a reopen, reads the segment files back
// through LoadWAL.
//
// Layout, under one data directory per partition:
//
//	c00000001.lsm ...  component files: pages back to back, each a 4-byte
//	                   big-endian length n (1..PageSize) followed by exactly
//	                   n page bytes, with no padding — a page costs its own
//	                   bytes on disk and in the buffer cache. The device
//	                   keeps each page's start offset in memory; Open
//	                   rebuilds that table by walking the length headers.
//	wal-00000001.log ... write-ahead log segments: raw record streams
//	                   appended by the wal package, one record per write
//	                   (u32 length, then LSN, type, flags, timestamp, key
//	                   and value; package wal owns the encoding), made
//	                   durable by one covering fsync per commit group
//	                   (see GroupSyncer).
//	                   The highest number a session created is its live
//	                   segment; every other one is sealed and never
//	                   written again. A torn tail from a crash mid-append
//	                   is expected and tolerated.
//	MANIFEST           component metadata blob written by the dataset layer.
//	                   Replaced atomically (write temp + fsync + rename +
//	                   dir fsync) after the data files are synced, so it is
//	                   the durability point of a component install.
//
// Nothing in a partition directory says which record encoding its segments
// use: lsmstore's layout.json, one level up, carries the store's Format
// number and refuses a directory written under another one before any
// partition opens.
//
// # Reopening a component file
//
// Open walks each component file from offset 0, one 4-byte pread per page,
// and records where every page starts. The walk ends at the first header
// that is zero, larger than PageSize, or whose page runs past the end of the
// file: that header and everything after it is a torn tail, left by a crash
// mid-write-through. Nothing durable refers to it — a file is named by a
// MANIFEST only after all of it was synced — so the file's page count is
// the number of whole pages in front of it. An empty page is never written
// (AppendPage refuses it), so a zero header can only be a tail.
//
// A read preads exactly the header and the n bytes the table records into
// the caller's buffer (a buffer-cache frame) — in two preads when the frame
// has room for the page but not for its header too — and checks that the
// header still says n, so a file that changed under the device is an error,
// never other bytes.
//
// # File lifetimes
//
// Nothing is rewritten in place and nothing is unlinked before the state
// that stops needing it is durable:
//
//   - A component file is deleted (Delete) by the dataset layer only after
//     the MANIFEST that no longer names it was saved, and only once no
//     reader holds the component. A crash before the unlink leaves a file
//     no manifest names; Open lists it and the dataset's reopen sweep
//     deletes it.
//   - RotateWAL fsyncs the live segment, creates the next one and fsyncs
//     the directory before it returns, so a commit acknowledged out of the
//     new segment can never outlive the segment's name. A crash between
//     the steps leaves the sealed segment whole and at most an empty
//     successor.
//   - DropWAL unlinks a sealed segment once the MANIFEST covering its
//     records is durable. A crash mid-drop leaves a suffix of the covered
//     segments; replay skips what the components already hold and the next
//     cut removes the files.
//   - A reopened device never appends to or truncates a segment it found:
//     the session starts a fresh one (RotateWAL with the next number).
//     Sealed files are therefore safe to hard-link into a crash image.
//
// # Append runs
//
// Appends are batched in runs: AppendPage puts the page, behind its length
// header, at the end of its file's run — a buffer holding the file's next
// bytes exactly as the file will hold them — and a run of appendBatchPages
// pages is written to the OS as is, in one write, without fsync.
// SaveManifest and Close write through every partial run and fsync the
// dirty files (and the directory after creates/deletes). A written run goes
// back to the device, which keeps at most two free ones for the next files'
// appends, so a steady append stream neither copies a page twice nor
// allocates; a sync lets the free runs go, so an idle device holds none.
// Because a run is recycled once written, a read of a page still in one
// copies it out under the device mutex.
//
// The device charges nothing: storage.Store charges every access against
// the device Profile — the same head, counters and virtual clock as on the
// simulated device — and wall-clock time is the separate, real measure of
// what the files cost.
package filedev

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/storage"
)

const (
	// pageHeader is the length prefix in front of every page on disk.
	pageHeader = 4
	// appendBatchPages is the number of pages an append run holds before it
	// is written through to the OS (without fsync).
	appendBatchPages = 16
	// maxFreeRuns is how many written runs the device keeps for reuse.
	maxFreeRuns = 2

	compPrefix   = "c"
	compSuffix   = ".lsm"
	walPrefix    = "wal-"
	walSuffix    = ".log"
	manifestName = "MANIFEST"
	lockName     = "LOCK"
)

// ErrClosed reports use of a closed device.
var ErrClosed = errors.New("filedev: device is closed")

type file struct {
	f *os.File
	// offs holds the header offset of every page: the first written of them
	// are in the file, which the device has written up to end; the rest are
	// in run, whose first byte is the file's byte end. Page p's length is the
	// gap to the next offset (or to the end of the run), less the header.
	offs    []int64
	written int
	end     int64
	run     []byte // appended, not yet written through; nil when empty
	dirty   bool   // needs fsync before the next durability point
}

// extent returns where page p's header starts and how many page bytes
// follow it.
func (f *file) extent(p int) (off int64, n int) {
	next := f.end + int64(len(f.run))
	if p+1 < len(f.offs) {
		next = f.offs[p+1]
	}
	return f.offs[p], int(next - f.offs[p] - pageHeader)
}

// Device is a storage.Durable backed by real files under a data directory.
// All methods are safe for concurrent use.
type Device struct {
	dir     string
	profile storage.Profile

	// counters, when attached, feed the WAL-durability event counts
	// (WALFsyncs); read-only after AttachCounters, which must precede
	// traffic.
	counters *metrics.Counters

	// walSyncMu serializes standalone WAL fsyncs (SyncWAL) without holding
	// the device mutex across the fsync, so appends for the NEXT commit
	// group proceed while the current group's fsync is in flight.
	walSyncMu sync.Mutex

	mu           sync.Mutex
	files        map[storage.FileID]*file
	nextID       storage.FileID
	bytesWritten int64
	dirDirty     bool
	wal          *os.File // live segment; nil until the session's first RotateWAL
	walSize      int64
	walDirty     bool
	walBroken    bool
	lock         *os.File
	dirf         *os.File // the data directory, held open for its fsyncs
	closed       bool
	freeRuns     [][]byte // written runs kept for reuse, at most maxFreeRuns
}

// AttachCounters wires the device's WAL-durability events (fsync counts)
// into the partition's counters. Call before serving traffic.
func (d *Device) AttachCounters(c *metrics.Counters) { d.counters = c }

func (d *Device) countWALFsync() {
	if d.counters != nil {
		d.counters.WALFsyncs.Add(1)
	}
}

// Open opens (creating if needed) the data directory and scans it for
// component files left by a previous session, walking each one's page
// headers (see "Reopening a component file"). The profile's page size bounds
// a page and must match across sessions; the dataset manifest carries the
// authoritative check.
func Open(dir string, profile storage.Profile) (*Device, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// One live device per directory: a second opener would unlink log
	// segments the first still replays from and clobber its manifest
	// saves. The lock dies with the process, so a crashed owner
	// never wedges the directory.
	lock, err := acquireDirLock(filepath.Join(dir, lockName))
	if err != nil {
		return nil, err
	}
	// Like LOCK, the directory stays open for the device's life: every
	// directory fsync (a sync after creates or deletes, a manifest rename,
	// a log rotation) goes through this one handle.
	dirf, err := os.Open(dir)
	if err != nil {
		return nil, errors.Join(err, lock.Close())
	}
	d := &Device{
		lock:    lock,
		dirf:    dirf,
		dir:     dir,
		profile: profile,
		files:   make(map[storage.FileID]*file),
		nextID:  1,
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, errors.Join(err, d.closeAllLocked())
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, compPrefix) || !strings.HasSuffix(name, compSuffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, compPrefix), compSuffix), 10, 64)
		if err != nil {
			continue
		}
		id := storage.FileID(n)
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR, 0o644)
		if err != nil {
			return nil, errors.Join(err, d.closeAllLocked())
		}
		offs, end, err := walkPages(f, profile.PageSize)
		if err != nil {
			return nil, errors.Join(err, f.Close(), d.closeAllLocked())
		}
		d.files[id] = &file{f: f, offs: offs, written: len(offs), end: end}
		if id >= d.nextID {
			d.nextID = id + 1
		}
	}
	return d, nil
}

// walkPages rebuilds a component file's page table from its length headers.
// It stops at the first header that is zero, larger than pageSize, or whose
// page runs past the end of the file: a torn tail. end is where that tail
// starts, so an append after the reopen writes over it.
func walkPages(f *os.File, pageSize int) (offs []int64, end int64, err error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := st.Size()
	var hdr [pageHeader]byte
	for end+pageHeader <= size {
		if _, err := f.ReadAt(hdr[:], end); err != nil {
			return nil, 0, err
		}
		n := int64(binary.BigEndian.Uint32(hdr[:]))
		if n == 0 || n > int64(pageSize) || end+pageHeader+n > size {
			break
		}
		offs = append(offs, end)
		end += pageHeader + n
	}
	return offs, end, nil
}

// Dir returns the device's data directory.
func (d *Device) Dir() string { return d.dir }

// Profile returns the device profile (layout + read-ahead window).
func (d *Device) Profile() storage.Profile { return d.profile }

// PageSize returns the page size in bytes.
func (d *Device) PageSize() int { return d.profile.PageSize }

func (d *Device) compPath(id storage.FileID) string {
	return filepath.Join(d.dir, ComponentFileName(id))
}

// ComponentFileName is the name of component file id inside a data
// directory; WALSegmentName that of log segment seq. Crash-image builders
// and tests name files through these, so the layout is spelled in one place.
func ComponentFileName(id storage.FileID) string {
	return fmt.Sprintf("%s%08d%s", compPrefix, uint64(id), compSuffix)
}

func WALSegmentName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", walPrefix, seq, walSuffix)
}

// Create allocates a new empty component file.
func (d *Device) Create() storage.FileID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0
	}
	id := d.nextID
	d.nextID++
	f, err := os.OpenFile(d.compPath(id), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		// Create has no error return in the Device contract; the first
		// append to the ID fails immediately instead.
		d.files[id] = &file{f: nil}
		return id
	}
	d.files[id] = &file{f: f, dirty: true}
	d.dirDirty = true
	return id
}

// Delete removes a component file. The file leaves the device's table under
// the mutex; the close and the unlink — which take time in proportion to the
// file — run outside it, so reclaiming a large merged-away component never
// stalls the partition's reads and appends.
func (d *Device) Delete(id storage.FileID) {
	d.mu.Lock()
	f, ok := d.files[id]
	delete(d.files, id)
	d.dirDirty = d.dirDirty || ok
	if ok && f.run != nil {
		d.recycleRunLocked(f)
	}
	d.mu.Unlock()
	if !ok {
		return
	}
	if f.f != nil {
		//lsm:allow-discard Delete is infallible by the storage.Device contract; a close failure here leaks nothing the process exit won't reclaim
		f.f.Close()
	}
	//lsm:allow-discard a component file that survives a failed remove is garbage-collected on the next Open; Delete stays infallible
	os.Remove(d.compPath(id))
}

// writeThroughLocked writes the file's run at the file's written-through
// end, in one write, and hands the run back to the device (the caller holds
// the device mutex). A failed write changes nothing: the next attempt
// writes the same run at the same offset.
func (d *Device) writeThroughLocked(id storage.FileID, f *file) error {
	if len(f.run) == 0 {
		return nil
	}
	if f.f == nil {
		return fmt.Errorf("filedev: file %d was not created on disk", id)
	}
	if _, err := f.f.WriteAt(f.run, f.end); err != nil {
		return err
	}
	f.end += int64(len(f.run))
	f.written = len(f.offs)
	f.dirty = true
	d.recycleRunLocked(f)
	return nil
}

// recycleRunLocked takes f's run away and keeps it for the next file's
// appends unless the device already keeps maxFreeRuns. The run's bytes are
// overwritten from then on, which is why ReadPage copies a buffered page
// before it releases the mutex.
func (d *Device) recycleRunLocked(f *file) {
	if len(d.freeRuns) < maxFreeRuns {
		d.freeRuns = append(d.freeRuns, f.run[:0])
	}
	f.run = nil
}

// AppendPage appends one page to the file's run. The page is visible to
// reads immediately; it becomes durable at the next SaveManifest (component
// install) — the same no-force posture as the simulation.
func (d *Device) AppendPage(id storage.FileID, data []byte) (int, error) {
	if len(data) > d.profile.PageSize {
		return 0, fmt.Errorf("filedev: page overflow: %d > %d", len(data), d.profile.PageSize)
	}
	if len(data) == 0 {
		// A zero length header is where a reopen's walk stops.
		return 0, errors.New("filedev: empty page")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	f, ok := d.files[id]
	if !ok {
		return 0, storage.ErrNoSuchFile
	}
	if f.f == nil {
		return 0, fmt.Errorf("filedev: file %d was never created on disk", id)
	}
	if f.run == nil {
		if n := len(d.freeRuns); n > 0 {
			f.run, d.freeRuns = d.freeRuns[n-1], d.freeRuns[:n-1]
		} else {
			// Room for a full run of full pages: a run never regrows.
			f.run = make([]byte, 0, appendBatchPages*(pageHeader+d.profile.PageSize))
		}
	}
	f.offs = append(f.offs, f.end+int64(len(f.run)))
	f.run = binary.BigEndian.AppendUint32(f.run, uint32(len(data)))
	f.run = append(f.run, data...)
	d.bytesWritten += int64(len(data))
	if len(f.offs)-f.written >= appendBatchPages {
		if err := d.writeThroughLocked(id, f); err != nil {
			return 0, err
		}
	}
	return len(f.offs) - 1, nil
}

// ReadPage copies one page into dst: out of the file's run, or by one pread
// of exactly its header and bytes. The header must still say what the table
// recorded. The page lands in dst's buffer whenever cap(dst) holds it: just
// behind its header when there is room for both, else at the start, the
// header read on its own (a page within pageHeader bytes of a full frame).
// Without room, it lands in a new buffer of exactly header and page, so the
// result never has capacity past the page unless dst gave it.
func (d *Device) ReadPage(id storage.FileID, page int, dst []byte) ([]byte, error) {
	d.mu.Lock()
	f, ok := d.files[id]
	if !ok {
		d.mu.Unlock()
		return nil, storage.ErrNoSuchFile
	}
	if page < 0 || page >= len(f.offs) {
		d.mu.Unlock()
		return nil, storage.ErrNoSuchPage
	}
	off, n := f.extent(page)
	if page >= f.written {
		// Copied under the mutex: once it is released, a write-through may
		// hand the run to another file's appends.
		if cap(dst) < n {
			dst = make([]byte, 0, n)
		}
		start := off - f.end + pageHeader
		dst = append(dst[:0], f.run[start:start+int64(n)]...)
		d.mu.Unlock()
		return dst, nil
	}
	// os.File.ReadAt is safe for concurrent use, and holding the device
	// mutex across real disk reads (or the multi-fsync install path) would
	// serialize the partition.
	h := f.f
	d.mu.Unlock()
	var length uint32
	var body []byte
	var err error
	if cap(dst) < pageHeader+n && cap(dst) >= n {
		var hdr [pageHeader]byte
		body = dst[:n]
		if err = d.pread(h, hdr[:], off); err == nil {
			err = d.pread(h, body, off+pageHeader)
		}
		length = binary.BigEndian.Uint32(hdr[:])
	} else {
		buf := dst[:0]
		if cap(buf) < pageHeader+n {
			buf = make([]byte, 0, pageHeader+n)
		}
		buf = buf[:pageHeader+n]
		err = d.pread(h, buf, off)
		length, body = binary.BigEndian.Uint32(buf), buf[pageHeader:]
	}
	if err != nil {
		return nil, fmt.Errorf("filedev: reading file %d page %d: %w", id, page, err)
	}
	if int64(length) != int64(n) {
		return nil, fmt.Errorf("filedev: corrupt page header in file %d page %d: length %d, want %d", id, page, length, n)
	}
	return body, nil
}

// pread fills buf from h at off; a short read is an error.
func (d *Device) pread(h *os.File, buf []byte, off int64) error {
	if got, err := h.ReadAt(buf, off); got < len(buf) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// NumPages returns the length of a file in pages (including buffered ones).
func (d *Device) NumPages(id storage.FileID) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[id]
	if !ok {
		return 0, storage.ErrNoSuchFile
	}
	return len(f.offs), nil
}

// List returns the IDs of all live component files in ascending order.
func (d *Device) List() []storage.FileID {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]storage.FileID, 0, len(d.files))
	for id := range d.files {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// BytesWritten reports the total page bytes ever appended.
func (d *Device) BytesWritten() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytesWritten
}

// syncLocked writes through every run, fsyncs dirty component files and
// the WAL, and fsyncs the directory after creates/deletes.
func (d *Device) syncLocked() error {
	var errs []error
	for id, f := range d.files {
		if err := d.writeThroughLocked(id, f); err != nil {
			errs = append(errs, err)
			continue
		}
		if f.dirty && f.f != nil {
			if err := f.f.Sync(); err != nil {
				errs = append(errs, err)
				continue
			}
			f.dirty = false
		}
	}
	if d.walBroken {
		errs = append(errs, errWALBroken)
	} else if d.walDirty && d.wal != nil {
		if err := d.wal.Sync(); err != nil {
			errs = append(errs, err)
		} else {
			d.walDirty = false
			d.countWALFsync()
		}
	}
	// A sync ends the builds it installs: an idle device keeps no run, and
	// the next build's first appends take fresh ones.
	clear(d.freeRuns)
	d.freeRuns = d.freeRuns[:0]
	if d.dirDirty {
		if err := d.dirf.Sync(); err != nil {
			errs = append(errs, err)
		} else {
			d.dirDirty = false
		}
	}
	return errors.Join(errs...)
}

// Close syncs and releases the device. The device is unusable afterwards.
func (d *Device) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	//lsm:lockio-ok final teardown; mu stays held so no append races the closing handles
	err := errors.Join(d.syncLocked(), d.closeAllLocked())
	d.closed = true
	return err
}

func (d *Device) closeAllLocked() error {
	var errs []error
	for _, f := range d.files {
		if f.f != nil {
			if err := f.f.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	if d.wal != nil {
		if err := d.wal.Close(); err != nil {
			errs = append(errs, err)
		}
		d.wal = nil
	}
	if d.dirf != nil {
		if err := d.dirf.Close(); err != nil {
			errs = append(errs, err)
		}
		d.dirf = nil
	}
	if d.lock != nil {
		// Releases the directory lock.
		if err := d.lock.Close(); err != nil {
			errs = append(errs, err)
		}
		d.lock = nil
	}
	return errors.Join(errs...)
}

// errWALBroken poisons the log area after a failed append could not be
// rolled back: the on-disk suffix is indeterminate, so neither appends nor
// background syncs may touch it again (a later sync would silently make a
// failed commit durable).
var errWALBroken = errors.New("filedev: WAL is poisoned by an earlier failed append")

// walPath names the file of segment seq.
func (d *Device) walPath(seq uint64) string { return filepath.Join(d.dir, WALSegmentName(seq)) }

// AppendWAL appends encoded log records to the live segment, unsynced: the
// commit group's SyncWAL makes them durable. A failed write means the
// operation was reported as failed to the caller, so the appended bytes are
// truncated away; if even the rollback fails, the WAL is poisoned rather
// than left where a later sync could durably commit the failed write.
func (d *Device) AppendWAL(data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.walBroken {
		return errWALBroken
	}
	if d.wal == nil {
		return errors.New("filedev: no live WAL segment (RotateWAL starts one)")
	}
	n, err := d.wal.Write(data)
	if err != nil {
		if terr := d.wal.Truncate(d.walSize); terr != nil {
			d.walBroken = true
		}
		return err
	}
	d.walSize += int64(n)
	d.walDirty = true
	return nil
}

// SyncWAL fsyncs the live segment alone, covering every append that
// completed before the call — the durability point of a commit group. The
// device mutex is NOT held across the fsync, so appends for the next group
// proceed while this group's fsync is in flight; walSyncMu serializes the
// fsyncs themselves (and rotations: the handle cannot move under an fsync).
// A failed fsync poisons the log area: unlike a failed append there is
// nothing to truncate back to — records from several writers (and
// possibly a next group) sit above the last known durable offset, so the
// suffix is indeterminate and neither appends nor background syncs may
// touch it again.
func (d *Device) SyncWAL() error {
	d.walSyncMu.Lock()
	defer d.walSyncMu.Unlock()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if d.walBroken {
		d.mu.Unlock()
		return errWALBroken
	}
	if !d.walDirty || d.wal == nil {
		d.mu.Unlock()
		return nil
	}
	w := d.wal
	// Cleared before the fsync: an append landing DURING the fsync may or
	// may not be covered, so it must re-mark the area dirty for the next
	// sync (conservative; AppendWAL sets walDirty on every write).
	d.walDirty = false
	d.mu.Unlock()
	if err := w.Sync(); err != nil {
		d.mu.Lock()
		d.walBroken = true
		d.mu.Unlock()
		return err
	}
	d.countWALFsync()
	return nil
}

// RotateWAL seals the live segment and makes segment seq the live one: the
// old segment is fsynced before the handle moves, and the new file and its
// directory entry are durable before RotateWAL returns, so no commit is
// ever acknowledged out of a segment a crash could lose the name of. The
// new file must not exist: a session never appends to a segment it found.
// The caller guarantees no append is in flight; a covering group fsync may
// be, and walSyncMu orders the rotation after it.
func (d *Device) RotateWAL(seq uint64) error {
	d.walSyncMu.Lock()
	defer d.walSyncMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.walBroken {
		return errWALBroken
	}
	if d.wal != nil && d.walDirty {
		//lsm:lockio-ok the rotation is a barrier inside the flush pipeline's writer drain; mu keeps an append from slipping between the seal and the handle move
		if err := d.wal.Sync(); err != nil {
			d.walBroken = true
			return err
		}
		d.walDirty = false
		d.countWALFsync()
	}
	f, err := os.OpenFile(d.walPath(seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	//lsm:lockio-ok see above: same barrier
	if err := d.dirf.Sync(); err != nil {
		return errors.Join(err, f.Close())
	}
	if d.wal != nil {
		//lsm:allow-discard the sealed segment was fsynced above; its handle holds nothing a close could lose
		d.wal.Close()
	}
	d.wal, d.walSize = f, 0
	return nil
}

// DropWAL unlinks the sealed segment seq (never the live one). Like Delete
// it cannot fail: a segment that survives is dropped by the first cut after
// the next reopen.
func (d *Device) DropWAL(seq uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	//lsm:allow-discard see the doc comment: a surviving segment is only garbage
	os.Remove(d.walPath(seq))
	d.dirDirty = true
}

// LoadWAL returns every log segment in the directory, oldest first (nil
// when there is none): those a previous session left and this session's,
// read back from the files.
func (d *Device) LoadWAL() ([]storage.WALSegment, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var segs []storage.WALSegment
	for _, e := range entries {
		seq, ok := walSeq(e.Name())
		if !ok {
			continue
		}
		data, err := os.ReadFile(filepath.Join(d.dir, e.Name()))
		if err != nil {
			return nil, err
		}
		segs = append(segs, storage.WALSegment{Seq: seq, Data: data})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	return segs, nil
}

// walSeq parses a log segment's file name.
func walSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), walSuffix), 10, 64)
	return seq, err == nil && seq > 0
}

// SaveManifest syncs the device, then atomically replaces the manifest:
// temp file + fsync + rename + directory fsync. This is the durability
// point of a component install — a crash leaves either the old manifest or
// the new one, and everything the surviving one references is on disk.
func (d *Device) SaveManifest(data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	//lsm:lockio-ok component install: data pages must be durable before the manifest that references them, with no appends interleaving; maintenance path, not the commit path
	if err := d.syncLocked(); err != nil {
		return err
	}
	//lsm:lockio-ok see above: the manifest write is the second half of the same install barrier
	if err := replaceFile(d.dir, manifestName, data); err != nil {
		return err
	}
	//lsm:lockio-ok see above: the rename is durable once the directory is
	return d.dirf.Sync()
}

// LoadManifest returns the manifest of a previous session, or (nil, nil).
func (d *Device) LoadManifest() ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(d.dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return data, err
}

// AtomicWriteFile durably replaces dir/name: temp file + fsync + rename +
// directory fsync, so a crash leaves either the previous content or the
// new one, never a mix. It is the one crash-safe replace protocol shared
// by the manifest and the store layout file; a Device fsyncs the directory
// through the handle it holds instead of opening it again.
func AtomicWriteFile(dir, name string, data []byte) error {
	if err := replaceFile(dir, name, data); err != nil {
		return err
	}
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(f.Sync(), f.Close())
}

// replaceFile is AtomicWriteFile up to the directory fsync: temp file +
// fsync + rename.
func replaceFile(dir, name string, data []byte) error {
	path := filepath.Join(dir, name)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

var _ storage.Durable = (*Device)(nil)
