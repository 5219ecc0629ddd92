// Package wal implements write-ahead logging and recovery in the style of
// AsterixDB (Section 2.2): logical log records, record-level transactions,
// a no-steal/no-force buffer policy. A write is one log record — the record
// is the commit. Every record still in the log is a committed write, and
// crash recovery replays those past the maximum component timestamp; there
// is nothing to undo, because no-steal keeps uncommitted data out of the
// disk components. Each delete/upsert record carries the update bit of
// Section 5.2, telling recovery whether the operation flipped a mutable
// bitmap bit in a disk component. Only this package knows the rule and the
// record encoding.
//
// # Durability
//
// On a durable device (Device: the log-writing methods of storage.Durable,
// under their own names) Append streams the record to the device's log area
// unsynced, and its durability comes from the log's GroupCommitter, passed
// at construction:
//
//   - Single write: the writer parks on the open commit group; one member
//     issues a single fsync covering everyone parked and wakes the group. A
//     lone writer's group is itself, and its fsync is immediate.
//   - Batched: a record registered in a Batch is not waited for on its own;
//     WaitBatch parks once for all of them — one fsync per engine batch,
//     not per mutation.
//
// Either way a write is acknowledged only after the fsync that covers its
// record returns, and a failed fsync fails exactly the writers that fsync
// was meant to cover (per-waiter error delivery) while wedging the log for
// everyone after. What each failure leaves behind:
//
//   - A failed append: the device rolled the bytes back (or poisoned its log
//     area), the record is dropped from the memory image, the log is wedged.
//   - A failed covering fsync: the records it was meant to cover are dropped
//     from the memory image and the log is wedged, so an in-session
//     Crash/Recover never replays them. Their bytes may still sit in the
//     segment file.
//   - A torn tail (a crash mid-append): the segment ends at its first
//     truncated or malformed record when it is reopened.
//
// The contract is "acknowledged ⇒ fsynced ⇒ replayed after any crash", not
// its converse: a record that reached the file whole is replayed by the next
// process even if the write was never acknowledged — the crash came before
// the covering fsync returned, or that fsync failed. An unacknowledged write
// is "not guaranteed", never "certainly absent".
//
// # Lifetime
//
// The log is a sequence of segments. Rotate seals the live one and starts
// the next; the dataset rotates inside the writer drain of every memtable
// freeze, and once the batch frozen there is installed and its manifest is
// durable, DropBefore discards every older segment wholesale — the memory
// image and, through the device, the file. Nothing is ever rewritten: a
// reopened log keeps the segments it recovered read-only and appends to a
// fresh one. What the log retains per record is its encoding, the very
// bytes the device received; Replay decodes them.
package wal

import (
	"encoding/binary"
	"slices"
	"sync"

	"repro/internal/metrics"
	"repro/internal/storage"
)

// RecordType enumerates logical log record kinds.
type RecordType byte

// Log record kinds.
const (
	RecInsert RecordType = iota + 1
	RecDelete
	RecUpsert
)

// Record is one logical log record: one committed mutation.
type Record struct {
	LSN  int64
	Type RecordType
	TS   int64
	// UpdateBit marks delete/upsert operations that also flipped a mutable
	// bitmap bit in a disk component (Section 5.2); recovery replays the
	// bitmap mutation only when it is set.
	UpdateBit bool
	Key       []byte
	Value     []byte
}

// Device is what the log writes to: the three log-area methods of
// storage.Durable it consumes, under the device's own names and contracts,
// so a durable device — raw or wrapped — is the log's device as it stands.
// AppendWAL receives the binary encoding of every appended record, a slice
// aliasing the log's own memory image.
type Device interface {
	AppendWAL(data []byte) error
	RotateWAL(seq uint64) error
	DropWAL(seq uint64)
}

// segment is the memory image of one log segment: the encodings of its
// records back to back, exactly the bytes the device was given.
type segment struct {
	seq uint64
	buf []byte
	n   int // records in buf
}

// drop removes the record with the given LSN. The survivors move to a fresh
// buffer: a device append still in flight may be reading the old one.
func (s *segment) drop(lsn int64) bool {
	for off := 0; off < len(s.buf); {
		end := off + 4 + int(binary.BigEndian.Uint32(s.buf[off:]))
		if got, _ := binary.Varint(s.buf[off+4:]); got == lsn {
			s.buf = append(slices.Clone(s.buf[:off]), s.buf[end:]...)
			s.n--
			return true
		}
		off = end
	}
	return false
}

// GroupCommitter coalesces commit durability across concurrent writers.
// A committer appends its record to the device without sync, and then
// Waits: the waiter joins the open commit group, one member becomes the
// leader and issues a single covering fsync, and every member of the group
// receives that fsync's result (see filedev.GroupSyncer).
type GroupCommitter interface {
	// Wait joins the open commit group and blocks until a covering fsync
	// completes, returning its result. The caller's records must be fully
	// appended to the device before Wait is called; commits says how
	// many of them this waiter carries (1 for a single write, the batch
	// size for a deferred batch — group-size accounting only).
	Wait(commits int64) error
}

// Log is an append-only logical log. The paper's configuration dedicates a
// separate device to logging, so appends are charged at a flat group-commit
// cost rather than against the LSM data disk. A log opened on a Device
// additionally streams every record to it in its binary encoding and commits
// it through its group (real write-ahead durability).
type Log struct {
	env   *metrics.Env
	dev   Device
	group GroupCommitter // commits every append to dev; nil exactly when dev is

	mu      sync.Mutex
	segs    []segment // oldest to newest; appends go to the last
	nextLSN int64
	// devErr is the first device failure; once set the log is considered
	// wedged for durability purposes and the next logged write surfaces it.
	devErr error
	// yield is the deterministic-simulation scheduling hook, invoked at the
	// instrumented points in the group-commit path (nil = off).
	yield func(point string)
	// keepCommitOnFailedFsync reintroduces a historical bug for simulation
	// validation; see SetUnsafeKeepCommitOnFailedFsync.
	keepCommitOnFailedFsync bool
}

// New creates an empty log that lives in memory only.
func New(env *metrics.Env) *Log {
	return &Log{env: env, nextLSN: 1, segs: []segment{{seq: 1}}}
}

// OpenPersisted rebuilds a log from the segments a previous session left on
// a device, oldest first. Each segment ends at its first corrupt or
// truncated record (the torn tail of a crash mid-append); the segments stay
// as they are — nothing is appended to or cut out of a recovered segment —
// and the session's appends go to a fresh one, started on dev here.
// LSNs keep ascending across sessions. Every append is committed through
// group, which must cover dev's log area; with a nil dev (and group) the log
// lives in memory only.
func OpenPersisted(env *metrics.Env, segs []storage.WALSegment, dev Device, group GroupCommitter) (*Log, error) {
	l := &Log{env: env, dev: dev, group: group, nextLSN: 1}
	for _, s := range segs {
		seg := segment{seq: s.Seq}
		data := s.Data
		for len(data) > 0 {
			r, rest, err := DecodeRecord(data)
			if err != nil {
				break
			}
			seg.n++
			l.nextLSN = max(l.nextLSN, r.LSN+1)
			data = rest
		}
		seg.buf = s.Data[:len(s.Data)-len(data)]
		l.segs = append(l.segs, seg)
	}
	_, err := l.Rotate()
	return l, err
}

// Rotate seals the live segment and starts the next, returning the new
// segment's number: the cut point to hand DropBefore once everything logged
// before this call is durable elsewhere. No append may be in flight (the
// dataset rotates inside a writer drain). A failed rotation wedges the log.
//
//lsm:lockio-ok the rotation runs inside the flush pipeline's writer drain: no append is in flight and none can start until the freeze returns, so nobody waits on mu behind the segment fsync; mu keeps the device's live segment and segs moving together
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, size := uint64(1), 0
	if n := len(l.segs); n > 0 {
		seq, size = l.segs[n-1].seq+1, len(l.segs[n-1].buf)
	}
	if l.dev != nil {
		if err := l.dev.RotateWAL(seq); err != nil {
			if l.devErr == nil {
				l.devErr = err
			}
			return 0, err
		}
	}
	// Sized like its predecessor: in steady state a segment never regrows.
	l.segs = append(l.segs, segment{seq: seq, buf: make([]byte, 0, size)})
	return seq, nil
}

// DropBefore discards every sealed segment numbered below seq, memory image
// and file together. The caller guarantees their records are covered by
// durable components.
func (l *Log) DropBefore(seq uint64) {
	l.mu.Lock()
	n := 0
	for n < len(l.segs)-1 && l.segs[n].seq < seq {
		n++
	}
	dropped := slices.Clone(l.segs[:n])
	l.segs = slices.Delete(l.segs, 0, n)
	l.mu.Unlock()
	if l.dev != nil {
		for _, s := range dropped {
			l.dev.DropWAL(s.seq)
		}
	}
}

// Append logs one write, assigning and returning its LSN. With a nil batch
// the record is durable when Append returns nil: covered by the one fsync
// its commit group shares. With a batch (see BeginBatch) the record is
// registered in b; it is durable, and the write may be acknowledged, only
// after a successful WaitBatch.
//
// The error is THIS record's own result — a device failure of its append or
// the failure of the fsync meant to cover it — never the log-wide sticky
// one, which may belong to a concurrent writer. On failure the record is
// removed from the memory image again and the log is wedged: the device's
// log area is no longer trustworthy, and an in-session Crash/Recover must
// not replay a write reported as failed.
func (l *Log) Append(r Record, b *Batch) (int64, error) {
	l.mu.Lock()
	r.LSN = l.nextLSN
	l.nextLSN++
	live := &l.segs[len(l.segs)-1]
	start := len(live.buf)
	live.buf = AppendRecord(live.buf, r)
	live.n++
	// The device reads the record out of the memory image: later appends only
	// write past it, and a drop moves the survivors instead of shifting them.
	enc := live.buf[start:len(live.buf):len(live.buf)]
	yield := l.yield
	l.mu.Unlock()
	if l.env != nil {
		l.env.ChargeLogAppend()
	}
	if l.dev == nil {
		return r.LSN, nil
	}
	if err := l.dev.AppendWAL(enc); err != nil {
		l.poisonAndDrop(err, r.LSN)
		return r.LSN, err
	}
	if b != nil {
		b.lsns = append(b.lsns, r.LSN)
		return r.LSN, nil
	}
	if yield != nil {
		yield("wal.commit.appended")
	}
	if err := l.group.Wait(1); err != nil {
		l.failCovered(err, r.LSN)
		return r.LSN, err
	}
	return r.LSN, nil
}

// poisonAndDrop records a durability failure: the sticky device error wedges
// the log (the next logged write surfaces it) and every listed record is
// removed from the memory image, so an in-session Crash/Recover can never
// replay a write whose append or covering fsync was reported as failed.
func (l *Log) poisonAndDrop(err error, lsns ...int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.devErr == nil {
		l.devErr = err
	}
	for _, lsn := range lsns {
		for i := len(l.segs) - 1; i >= 0 && !l.segs[i].drop(lsn); i-- {
		}
	}
}

// DeviceErr returns the first device (durability) failure, if any.
func (l *Log) DeviceErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.devErr
}

// SetYield installs a scheduling hook invoked at the instrumented points
// in the commit path (after a record is appended unsynced, before
// the writer parks on its group). The deterministic simulation harness uses
// it to perturb how committers interleave with group leaders. A nil hook
// disables the points.
func (l *Log) SetYield(fn func(point string)) {
	l.mu.Lock()
	l.yield = fn
	l.mu.Unlock()
}

// SetUnsafeKeepCommitOnFailedFsync reintroduces, on purpose, the historical
// bug this package once shipped: a record whose covering fsync failed was
// left in the memory image instead of being dropped and the log wedged, so
// an in-session Crash/Recover would replay — and a later flush would make
// durable — a write that was never acknowledged. It exists solely so the
// deterministic simulation corpus can prove it still catches that bug
// (internal/dst); nothing else may call it.
func (l *Log) SetUnsafeKeepCommitOnFailedFsync(keep bool) {
	l.mu.Lock()
	l.keepCommitOnFailedFsync = keep
	l.mu.Unlock()
}

// failCovered handles the failure of a covering fsync for the listed
// records: they leave the memory image and the log wedges.
func (l *Log) failCovered(err error, lsns ...int64) {
	l.mu.Lock()
	keep := l.keepCommitOnFailedFsync
	l.mu.Unlock()
	if !keep {
		l.poisonAndDrop(err, lsns...)
	}
}

// Batch defers durability across a run of writes: each record is appended
// unsynced and registered here, and one WaitBatch at the end parks on the
// commit group once, so an engine batch pays a single fsync instead of one
// per mutation. A Batch is not safe for concurrent use.
type Batch struct {
	lsns []int64
}

// BeginBatch empties b and returns it as a deferred-durability handle, or
// returns nil for a nil log or one without a device, whose writes have no
// fsync to wait for. b may be the zero Batch; a caller that keeps its
// handle from batch to batch keeps the capacity its LSN list grew to.
func (l *Log) BeginBatch(b *Batch) *Batch {
	if l == nil || l.dev == nil {
		return nil
	}
	b.lsns = b.lsns[:0]
	return b
}

// WaitBatch blocks until every record registered in b is covered by a WAL
// fsync. On failure every registered record is removed from the memory
// image and the log is wedged — none of the batch's writes may be
// acknowledged, and an in-session Crash/Recover will not replay them.
func (l *Log) WaitBatch(b *Batch) error {
	if b == nil || len(b.lsns) == 0 {
		return nil
	}
	l.mu.Lock()
	yield := l.yield
	l.mu.Unlock()
	if yield != nil {
		yield("wal.batch.registered")
	}
	if err := l.group.Wait(int64(len(b.lsns))); err != nil {
		l.failCovered(err, b.lsns...)
		return err
	}
	b.lsns = b.lsns[:0]
	return nil
}

// MaxLSN returns the LSN of the last appended record (0 when empty).
func (l *Log) MaxLSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Len returns the number of records the log retains.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for i := range l.segs {
		n += l.segs[i].n
	}
	return n
}

// Bytes returns the size of the retained log: the bytes of every segment
// not yet dropped, which is what the device holds for it.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for i := range l.segs {
		n += int64(len(l.segs[i].buf))
	}
	return n
}

// Replay invokes apply for every record in the log, in log order: each is a
// committed write (a record whose append or covering fsync failed has left
// the memory image, and a recovered segment ends before its torn tail). The
// records handed to apply alias the log's memory image.
func (l *Log) Replay(apply func(Record) error) error {
	// A segment buffer is only ever appended to or replaced, so the slices
	// snapshotted here stay valid while apply runs without the mutex.
	l.mu.Lock()
	bufs := make([][]byte, len(l.segs))
	for i := range l.segs {
		bufs[i] = l.segs[i].buf
	}
	l.mu.Unlock()
	for _, data := range bufs {
		for len(data) > 0 {
			r, rest, err := DecodeRecord(data)
			if err != nil {
				return err
			}
			if err := apply(r); err != nil {
				return err
			}
			data = rest
		}
	}
	return nil
}
