package storage

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// FileID names one component file on the simulated disk.
type FileID uint64

// Profile is a device cost model.
type Profile struct {
	Name string
	// PageSize is the data page size in bytes (128 KB on the paper's HDD
	// configuration, 32 KB on its SSD configuration).
	PageSize int
	// Seek is the positioning cost paid by a random page access.
	Seek time.Duration
	// TransferPerPage is the sequential transfer time for one page.
	TransferPerPage time.Duration
	// ReadAheadPages is the device read-ahead window used by scans
	// (4 MB in the paper): after a seek, this many pages stream at
	// sequential cost.
	ReadAheadPages int
}

// HDD returns the paper's hard-disk profile: 128 KB pages, ~8.5 ms seek,
// ~100 MB/s transfer, 4 MB read-ahead.
func HDD() Profile {
	return Profile{
		Name:            "hdd",
		PageSize:        128 << 10,
		Seek:            8500 * time.Microsecond,
		TransferPerPage: 1280 * time.Microsecond, // 128 KB at 100 MB/s
		ReadAheadPages:  32,                      // 4 MB
	}
}

// SSD returns the paper's SSD profile: 32 KB pages, ~80 µs access latency,
// ~500 MB/s transfer.
func SSD() Profile {
	return Profile{
		Name:            "ssd",
		PageSize:        32 << 10,
		Seek:            80 * time.Microsecond,
		TransferPerPage: 64 * time.Microsecond, // 32 KB at 500 MB/s
		ReadAheadPages:  32,
	}
}

// ScaledHDD returns the HDD profile with a smaller page size, for unit tests
// that want many pages from small datasets.
func ScaledHDD(pageSize int) Profile {
	p := HDD()
	p.PageSize = pageSize
	p.TransferPerPage = time.Duration(float64(p.TransferPerPage) * float64(pageSize) / float64(128<<10))
	if p.TransferPerPage <= 0 {
		p.TransferPerPage = time.Microsecond
	}
	return p
}

// ErrNoSuchFile reports access to a deleted or never-created file.
var ErrNoSuchFile = errors.New("storage: no such file")

// ErrNoSuchPage reports an out-of-range page read.
var ErrNoSuchPage = errors.New("storage: no such page")

type file struct {
	pages [][]byte
}

// Disk is a simulated device holding append-only files and the log area in
// memory. It only stores bytes: Store charges every page access against the
// device Profile, and the log charges its own flat append cost. All methods
// are safe for concurrent use.
type Disk struct {
	profile Profile

	mu     sync.Mutex
	files  map[FileID]*file
	nextID FileID

	bytesWritten int64

	walMu   sync.Mutex
	wal     []walSegment // ascending numbers
	walLive uint64       // the live segment; 0 before the first RotateWAL
}

// walSegment is one segment of the simulated log area.
type walSegment struct {
	seq  uint64
	data []byte
}

// NewDisk creates an empty simulated disk with the given device profile.
func NewDisk(profile Profile) *Disk {
	return &Disk{profile: profile, files: make(map[FileID]*file), nextID: 1}
}

// Profile returns the device profile.
func (d *Disk) Profile() Profile { return d.profile }

// PageSize returns the device page size in bytes.
func (d *Disk) PageSize() int { return d.profile.PageSize }

// Create allocates a new empty file and returns its ID.
func (d *Disk) Create() FileID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextID
	d.nextID++
	d.files[id] = &file{}
	return id
}

// Delete removes a file (component drop after a merge).
func (d *Disk) Delete(id FileID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.files, id)
}

// AppendPage appends one page to the file and returns its page number.
func (d *Disk) AppendPage(id FileID, data []byte) (int, error) {
	if len(data) > d.profile.PageSize {
		return 0, fmt.Errorf("storage: page overflow: %d > %d", len(data), d.profile.PageSize)
	}
	if len(data) == 0 {
		return 0, errors.New("storage: empty page")
	}
	cp := append([]byte(nil), data...)
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[id]
	if !ok {
		return 0, ErrNoSuchFile
	}
	f.pages = append(f.pages, cp)
	d.bytesWritten += int64(len(cp))
	return len(f.pages) - 1, nil
}

// ReadPage copies one page into dst (see Device).
func (d *Disk) ReadPage(id FileID, page int, dst []byte) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[id]
	if !ok {
		return nil, ErrNoSuchFile
	}
	if page < 0 || page >= len(f.pages) {
		return nil, ErrNoSuchPage
	}
	return append(dst[:0], f.pages[page]...), nil
}

// NumPages returns the current length of the file in pages.
func (d *Disk) NumPages(id FileID) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[id]
	if !ok {
		return 0, ErrNoSuchFile
	}
	return len(f.pages), nil
}

// BytesWritten reports the total bytes ever appended (write amplification
// accounting).
func (d *Disk) BytesWritten() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytesWritten
}

// List returns the IDs of all live files in ascending order.
func (d *Disk) List() []FileID {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]FileID, 0, len(d.files))
	for id := range d.files {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// AppendWAL copies data onto the live log segment (see Device).
func (d *Disk) AppendWAL(data []byte) error {
	d.walMu.Lock()
	defer d.walMu.Unlock()
	n := len(d.wal)
	if n == 0 || d.wal[n-1].seq != d.walLive {
		return errors.New("storage: no live log segment (RotateWAL starts one)")
	}
	d.wal[n-1].data = append(d.wal[n-1].data, data...)
	return nil
}

// SyncWAL is a no-op: the simulated log area lives as long as the process.
func (d *Disk) SyncWAL() error { return nil }

// RotateWAL starts segment seq, which must be numbered above every segment
// the disk holds.
func (d *Disk) RotateWAL(seq uint64) error {
	d.walMu.Lock()
	defer d.walMu.Unlock()
	size := 0
	if n := len(d.wal); n > 0 {
		if d.wal[n-1].seq >= seq {
			return fmt.Errorf("storage: log segment %d follows segment %d", seq, d.wal[n-1].seq)
		}
		size = len(d.wal[n-1].data)
	}
	// Sized like its predecessor: in steady state a segment never regrows.
	d.wal = append(d.wal, walSegment{seq: seq, data: make([]byte, 0, size)})
	d.walLive = seq
	return nil
}

// DropWAL removes the sealed segment seq.
func (d *Disk) DropWAL(seq uint64) {
	d.walMu.Lock()
	defer d.walMu.Unlock()
	d.wal = slices.DeleteFunc(d.wal, func(s walSegment) bool { return s.seq == seq })
}

// LoadWAL returns every segment, oldest first. The data slices alias the
// disk's segments up to their current length: later appends only write
// past it.
func (d *Disk) LoadWAL() ([]WALSegment, error) {
	d.walMu.Lock()
	defer d.walMu.Unlock()
	var segs []WALSegment
	for _, s := range d.wal {
		segs = append(segs, WALSegment{Seq: s.seq, Data: s.data[:len(s.data):len(s.data)]})
	}
	return segs, nil
}

// Close is a no-op: the simulated disk is always "durable" for the lifetime
// of the process, which is exactly the no-steal/no-force boundary the
// simulated crash battery exercises.
func (d *Disk) Close() error { return nil }
