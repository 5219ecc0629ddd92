package storage

// Device is a storage device beneath Store: append-only, page-granular
// component files and a write-ahead-log area. A device only stores and
// returns pages; Store charges the paper's device model against the access
// pattern, so virtual time means the same thing on every implementation,
// and on real files wall-clock time is the separate, real measure. Two
// exist:
//
//   - *Disk (this package): the paper's simulated device. Pages and log
//     segments live in memory; nothing survives the process.
//   - filedev.Device (internal/storage/filedev): real files under a data
//     directory with batched appends. It is also Durable.
//
// The log area is a sequence of numbered segments, each a raw byte stream
// owned by the wal package; the device appends to the live one, seals it
// when told to, and unlinks sealed ones. It never rewrites a segment.
// Recovery reads the log back through LoadWAL on every device, so an
// in-process crash and a reopen after a kill decode the same bytes.
//
// All methods must be safe for concurrent use.
type Device interface {
	// Profile returns the device cost profile (page size, seek/transfer
	// costs, read-ahead window) that Store charges and prefetches by. On a
	// file-backed device the page size also defines the on-disk layout.
	Profile() Profile
	// PageSize returns the device page size in bytes.
	PageSize() int
	// Create allocates a new empty component file and returns its ID.
	// File IDs are never reused within one device lifetime.
	Create() FileID
	// Delete removes a component file (component drop after a merge).
	Delete(id FileID)
	// AppendPage appends one page (1 to PageSize bytes; an empty page is an
	// error) to the file and returns its page number.
	// The device copies data before it returns and never retains the slice:
	// the caller may overwrite it at once (the B+-tree builder assembles
	// every page of a file in one buffer).
	AppendPage(id FileID, data []byte) (int, error)
	// ReadPage reads one page into dst's buffer and returns it. The page
	// lands in that buffer whenever cap(dst) holds it (a buffer-cache
	// frame), possibly a few bytes into it, and in a new buffer otherwise.
	// The result never aliases device memory — the caller owns those bytes
	// and may reuse the buffer for another page at once.
	ReadPage(id FileID, page int, dst []byte) ([]byte, error)
	// NumPages returns the current length of the file in pages.
	NumPages(id FileID) (int, error)
	// List returns the IDs of all live component files, in ascending order
	// (reopen-time garbage collection diffs this against the manifest).
	List() []FileID
	// BytesWritten reports the total bytes ever appended to component
	// files (write amplification accounting; the log area is not counted).
	BytesWritten() int64
	// AppendWAL appends encoded log records to the live segment, unsynced:
	// SyncWAL is their durability point. A failed append leaves none of
	// data in the log area (or poisons it). The device neither retains nor
	// modifies data: the caller may overwrite it as soon as the call
	// returns (the log encodes every record into a recycled buffer).
	AppendWAL(data []byte) error
	// SyncWAL makes the log area durable, covering every append that
	// completed before the call — the primitive group commit is built on:
	// committers append unsynced and a leader issues one SyncWAL for all of
	// them. A failure poisons the log area (the durable suffix is
	// indeterminate) and is returned to the caller. A no-op on the
	// simulated device.
	SyncWAL() error
	// RotateWAL seals the live segment and makes a new, empty segment
	// numbered seq the live one; on a durable device the sealed segment is
	// fsynced and the new one's existence is durable when the call returns.
	// A session's first RotateWAL starts its log: segments found at open
	// are never appended to, and a rotation onto an existing segment is an
	// error.
	RotateWAL(seq uint64) error
	// DropWAL unlinks the sealed segment seq (log records that durable
	// components cover). It cannot fail; a surviving segment is garbage the
	// next cut removes.
	DropWAL(seq uint64)
	// LoadWAL returns every segment the device holds, oldest first (nil
	// when none): those previous sessions left and this session's. A torn
	// tail from a crash mid-append is expected; the decoder stops at a
	// segment's first corrupt record. The caller reads the bytes and never
	// modifies them.
	LoadWAL() ([]WALSegment, error)
	// Close makes what was appended durable, where the device can, and
	// releases it. A no-op on the simulated device.
	Close() error
}

// Durable is a Device that outlives the process: next to its component
// files and its log area it keeps a manifest, the other half of the
// paper's durability model (Section 2.2: immutable components named by a
// manifest, a no-steal/no-force log for what is not in them yet). core.Open
// asserts it once, for the dataset's lifetime; a wrapper (dst.Control.Wrap)
// asserts it of the device it wraps. Nothing else does.
type Durable interface {
	Device
	// SaveManifest is the durability point of a component install: every
	// completed page append (and log append) is made durable first, then
	// the manifest replaces the previous one atomically, so a crash leaves
	// either the old or the new manifest — never a mix — and every file the
	// surviving one references is durable. The caller reuses data once the
	// call returns, so a device keeps no reference to it.
	SaveManifest(data []byte) error
	// LoadManifest returns the manifest written by a previous session, or
	// (nil, nil) when none exists.
	LoadManifest() ([]byte, error)
}

// WALSegment is one log segment as a device holds it: the unit of RotateWAL
// and DropWAL, and what LoadWAL hands recovery.
type WALSegment struct {
	Seq  uint64
	Data []byte
}

var _ Device = (*Disk)(nil)
