package storage

import "repro/internal/metrics"

// Device is the page-device abstraction beneath Store: append-only,
// page-granular component files plus the lifecycle hooks a persistent
// backend needs (sync, listing, shutdown). Two implementations exist:
//
//   - *Disk (this package): the paper's simulated device. Every access is
//     charged to the virtual clock per the device Profile; nothing survives
//     the process.
//   - filedev.Device (internal/storage/filedev): real files under a data
//     directory with batched appends and explicit fsync. Accesses update
//     the event counters but not the virtual clock — wall time is the
//     measurement there.
//
// All methods must be safe for concurrent use.
type Device interface {
	// Profile returns the device cost profile (page size, seek/transfer
	// costs, read-ahead window). File-backed devices still carry a profile:
	// the page size defines the on-disk layout and the read-ahead window
	// drives Store prefetching.
	Profile() Profile
	// PageSize returns the device page size in bytes.
	PageSize() int
	// Create allocates a new empty component file and returns its ID.
	// File IDs are never reused within one device lifetime.
	Create() FileID
	// Delete removes a component file (component drop after a merge).
	Delete(id FileID)
	// AppendPageEnv appends one page (at most PageSize bytes) to the file,
	// charging the given metrics environment, and returns its page number.
	AppendPageEnv(env *metrics.Env, id FileID, data []byte) (int, error)
	// ReadPageEnv reads one page, charging env; seqHint marks scan
	// accesses. The returned slice must not be modified.
	ReadPageEnv(env *metrics.Env, id FileID, page int, seqHint bool) ([]byte, error)
	// PrefetchPageEnv reads one page as part of a device read-ahead window:
	// the access is part of an already-positioned sequential stream, so it
	// is charged at streaming (transfer-only) cost and never pays a seek,
	// even when cached pages inside the window were skipped over.
	PrefetchPageEnv(env *metrics.Env, id FileID, page int) ([]byte, error)
	// NumPages returns the current length of the file in pages.
	NumPages(id FileID) (int, error)
	// List returns the IDs of all live component files, in ascending order
	// (reopen-time garbage collection diffs this against the manifest).
	List() []FileID
	// BytesWritten reports the total bytes ever appended (write
	// amplification accounting).
	BytesWritten() int64
	// Sync makes all completed appends durable. A no-op on the simulated
	// device.
	Sync() error
	// Close syncs and releases the device. A no-op on the simulated device.
	Close() error
}

// ManifestDevice is implemented by devices that can durably persist a small
// manifest blob (component metadata, file IDs, epochs) next to their data
// files. SaveManifest must act as the durability point of a component
// install: the device is synced first, then the manifest replaces the
// previous one atomically, so a crash leaves either the old or the new
// manifest — never a mix — and every file the surviving manifest references
// is durable.
type ManifestDevice interface {
	Device
	// SaveManifest syncs the device, then atomically replaces the manifest.
	SaveManifest(data []byte) error
	// LoadManifest returns the manifest written by a previous session, or
	// (nil, nil) when none exists.
	LoadManifest() ([]byte, error)
}

// WALSyncDevice is implemented by WAL devices that can make the log area
// durable independently of an append — the primitive group commit is built
// on: committers append their records unsynced and a leader issues one
// SyncWAL covering all of them.
type WALSyncDevice interface {
	WALDevice
	// SyncWAL fsyncs the WAL area, covering every append that completed
	// before the call. A failure poisons the log area (the durable suffix
	// is indeterminate) and is returned to the caller.
	SyncWAL() error
}

// WALDevice is implemented by devices with a durable write-ahead-log area.
// The log is a sequence of numbered segments, each a raw byte stream owned
// by the wal package; the device appends to the live one, seals it when
// told to, and unlinks sealed ones. It never rewrites a segment.
type WALDevice interface {
	// AppendWAL appends encoded log records to the live segment; with sync
	// set the append is fsynced before returning (commit durability).
	AppendWAL(data []byte, sync bool) error
	// RotateWAL seals the live segment (fsync) and makes a new, empty
	// segment numbered seq the live one; the new segment's existence is
	// durable when the call returns. A session's first RotateWAL starts its
	// log: segments found at open are never appended to.
	RotateWAL(seq uint64) error
	// DropWAL unlinks the sealed segment seq (log records that durable
	// components cover). It cannot fail; a surviving segment is garbage the
	// next cut removes.
	DropWAL(seq uint64)
	// LoadWAL returns the segments previous sessions left, oldest first
	// (nil when none). A torn tail from a crash mid-append is expected;
	// the decoder stops at a segment's first corrupt record.
	LoadWAL() ([]WALSegment, error)
}

// WALSegment is one log segment as read back by LoadWAL.
type WALSegment struct {
	Seq  uint64
	Data []byte
}

var _ Device = (*Disk)(nil)
