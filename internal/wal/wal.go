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
// # The log is its device's log area
//
// The log holds no copy of its records: Append encodes a record into a
// buffer the caller recycles and hands it to the device's log area
// (storage.Device), and Replay decodes what the device's LoadWAL returns.
// Every recovery — an in-process Crash/Recover on the simulated disk or on
// files, and a reopen after a kill — therefore reads the same bytes the
// same way. The log itself keeps only its LSN counter and the number,
// record count and size of each segment it retains.
//
// # Durability
//
// Append streams the record to the device unsynced, and its durability
// comes from the log's GroupCommitter, passed at Open:
//
//   - Single write: the writer parks on the open commit group; one member
//     issues a single fsync covering everyone parked and wakes the group. A
//     lone writer's group is itself, and its fsync is immediate.
//   - Batched: a record counted in a Batch is not waited for on its own;
//     WaitBatch parks once for all of them — one fsync per engine batch,
//     not per mutation.
//
// Either way a write is acknowledged only after the fsync that covers its
// record returns, and a failed fsync fails exactly the writers that fsync
// was meant to cover (per-waiter error delivery) while wedging the log for
// everyone after. What each failure leaves behind:
//
//   - A failed append: the device rolled the bytes back (or poisoned its log
//     area) and the log is wedged. The record is not in the log area.
//   - A failed covering fsync: the log is wedged. The records it was meant
//     to cover are whole in the log area and may be replayed after any
//     crash; a kill may also lose them with the unsynced tail.
//   - A torn tail (a crash mid-append): the segment ends at its first
//     truncated or malformed record.
//
// The contract is "acknowledged ⇒ fsynced ⇒ replayed after any crash", not
// its converse: a record that reached the log area whole may be replayed
// even if the write was never acknowledged — the crash came before the
// covering fsync returned, or that fsync failed. An unacknowledged write
// is "not guaranteed", never "certainly absent".
//
// # Lifetime
//
// The log is a sequence of segments. Replay, run before the session's
// first Rotate, adopts the segments the device holds; Rotate seals the
// live one and starts the next. The dataset rotates at open and inside the
// writer drain of every memtable freeze, and once the batch frozen there is
// installed and its manifest is durable, DropBefore has the device discard
// every older segment wholesale. Nothing is ever rewritten: a reopened log
// keeps the segments it recovered read-only and appends to a fresh one.
package wal

import (
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

// segment is what the log knows of one segment the device holds.
type segment struct {
	seq  uint64
	n    int   // whole records
	size int64 // bytes
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

// Log is an append-only logical log over a device's log area. The paper's
// configuration dedicates a separate device to logging, so appends are
// charged at a flat group-commit cost rather than against the LSM data
// disk; the device receives every record in its binary encoding and the
// group commits it.
type Log struct {
	env   *metrics.Env
	dev   storage.Device
	group GroupCommitter // covers dev's log area

	mu      sync.Mutex
	segs    []segment // oldest to newest; after Rotate the last is live
	nextLSN int64
	// devErr is the first device failure; once set the log is considered
	// wedged for durability purposes and the next logged write surfaces it.
	devErr error
	// yield is the deterministic-simulation scheduling hook, invoked at the
	// instrumented points in the group-commit path (nil = off).
	yield func(point string)
	// newestOnly re-arms a recovery bug for simulation validation; see
	// SetUnsafeReplayNewestOnly.
	newestOnly bool
}

// encodePool recycles the encode buffers of single writes; a batch brings
// its own (Batch).
var encodePool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// Open returns the log over dev's log area, committing every append through
// group, which must cover that area. It knows no segment yet: Replay adopts
// the ones the device holds, and Rotate starts the session's live one.
func Open(env *metrics.Env, dev storage.Device, group GroupCommitter) *Log {
	return &Log{env: env, dev: dev, group: group, nextLSN: 1}
}

// Rotate seals the live segment and starts the next, returning the new
// segment's number: the cut point to hand DropBefore once everything logged
// before this call is durable elsewhere. No append may be in flight (the
// dataset rotates at open and inside a writer drain). A failed rotation
// wedges the log.
//
//lsm:lockio-ok the rotation runs at open or inside the flush pipeline's writer drain: no append is in flight and none can start until the freeze returns, so nobody waits on mu behind the segment fsync; mu keeps the device's live segment and segs moving together
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := uint64(1)
	if n := len(l.segs); n > 0 {
		seq = l.segs[n-1].seq + 1
	}
	if err := l.dev.RotateWAL(seq); err != nil {
		l.wedgeLocked(err)
		return 0, err
	}
	l.segs = append(l.segs, segment{seq: seq})
	return seq, nil
}

// DropBefore has the device discard every sealed segment numbered below
// seq. The caller guarantees their records are covered by durable
// components.
func (l *Log) DropBefore(seq uint64) {
	l.mu.Lock()
	n := 0
	for n < len(l.segs)-1 && l.segs[n].seq < seq {
		n++
	}
	dropped := slices.Clone(l.segs[:n])
	l.segs = slices.Delete(l.segs, 0, n)
	l.mu.Unlock()
	for _, s := range dropped {
		l.dev.DropWAL(s.seq)
	}
}

// Append logs one write, assigning and returning its LSN. With a nil batch
// the record is durable when Append returns nil: covered by the one fsync
// its commit group shares. With a batch (see BeginBatch) the record is
// counted in b; it is durable, and the write may be acknowledged, only
// after a successful WaitBatch. The record is encoded into b's buffer, or a
// pooled one for a single write, so appending allocates nothing.
//
// The error is THIS record's own result — a device failure of its append or
// the failure of the fsync meant to cover it — never the log-wide sticky
// one, which may belong to a concurrent writer. On failure the log is
// wedged: its device's log area is no longer trustworthy.
func (l *Log) Append(r Record, b *Batch) (int64, error) {
	l.mu.Lock()
	r.LSN = l.nextLSN
	l.nextLSN++
	yield := l.yield
	l.mu.Unlock()
	if l.env != nil {
		l.env.ChargeLogAppend()
	}
	if b != nil {
		b.enc = AppendRecord(b.enc[:0], r)
		if err := l.write(b.enc); err != nil {
			return r.LSN, err
		}
		b.n++
		return r.LSN, nil
	}
	enc := encodePool.Get().(*[]byte)
	*enc = AppendRecord((*enc)[:0], r)
	err := l.write(*enc)
	encodePool.Put(enc)
	if err != nil {
		return r.LSN, err
	}
	if yield != nil {
		yield("wal.commit.appended")
	}
	if err := l.group.Wait(1); err != nil {
		l.wedge(err)
		return r.LSN, err
	}
	return r.LSN, nil
}

// write hands one encoded record to the device and counts it in the live
// segment. A failed append wedges the log.
func (l *Log) write(enc []byte) error {
	err := l.dev.AppendWAL(enc)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.wedgeLocked(err)
		return err
	}
	live := &l.segs[len(l.segs)-1]
	live.n++
	live.size += int64(len(enc))
	return nil
}

// wedge records a durability failure: the first one sticks, and the next
// logged write surfaces it.
func (l *Log) wedge(err error) {
	l.mu.Lock()
	l.wedgeLocked(err)
	l.mu.Unlock()
}

func (l *Log) wedgeLocked(err error) {
	if l.devErr == nil {
		l.devErr = err
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

// SetUnsafeReplayNewestOnly re-arms, on purpose, a bug recovery must never
// have: Replay applies only the records of the newest segment the device
// holds, so the writes in every older retained segment — a recovered log
// not yet cut, a flush batch whose install failed — are lost by an
// in-process Crash/Recover. It exists solely so the deterministic
// simulation corpus can prove it catches that bug (internal/dst); nothing
// else may call it.
func (l *Log) SetUnsafeReplayNewestOnly(on bool) {
	l.mu.Lock()
	l.newestOnly = on
	l.mu.Unlock()
}

// Batch defers durability across a run of writes: each record is appended
// unsynced and counted here, and one WaitBatch at the end parks on the
// commit group once, so an engine batch pays a single fsync instead of one
// per mutation. It also carries the buffer its records are encoded into. A
// Batch is not safe for concurrent use.
type Batch struct {
	n   int64  // records appended since BeginBatch
	enc []byte // encode buffer, reused by every record
}

// BeginBatch empties b and returns it as a deferred-durability handle, or
// returns nil for a nil log (a dataset without a log has nothing to wait
// for). b may be the zero Batch; a caller that keeps its handle from batch
// to batch keeps the encode buffer it grew.
func (l *Log) BeginBatch(b *Batch) *Batch {
	if l == nil {
		return nil
	}
	b.n = 0
	return b
}

// WaitBatch blocks until every record counted in b is covered by a WAL
// fsync. On failure the log is wedged and none of the batch's writes may
// be acknowledged; their records are whole in the log area, so any crash
// may still replay them.
func (l *Log) WaitBatch(b *Batch) error {
	if b == nil || b.n == 0 {
		return nil
	}
	l.mu.Lock()
	yield := l.yield
	l.mu.Unlock()
	if yield != nil {
		yield("wal.batch.registered")
	}
	err := l.group.Wait(b.n)
	b.n = 0
	if err != nil {
		l.wedge(err)
	}
	return err
}

// MaxLSN returns the LSN of the last appended record (0 when empty).
func (l *Log) MaxLSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Len returns the number of records in the segments the log retains.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.segs {
		n += s.n
	}
	return n
}

// Bytes returns the size of the retained log: the bytes of every segment
// not yet dropped, which is what the device holds for it.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, s := range l.segs {
		n += s.size
	}
	return n
}

// Replay decodes every segment the device holds, oldest first, and invokes
// apply for each whole record in log order. A segment ends at its first
// truncated or malformed record: the torn tail of a crash mid-append. The
// records handed to apply alias the bytes LoadWAL returned.
//
// The log learns from the same decode: its next LSN follows the largest one
// replayed, and a log that knows no segment yet — one opened and not yet
// rotated — adopts the device's segments as the retained log.
func (l *Log) Replay(apply func(Record) error) error {
	segs, err := l.dev.LoadWAL()
	if err != nil {
		return err
	}
	l.mu.Lock()
	newestOnly := l.newestOnly
	l.mu.Unlock()
	known := make([]segment, len(segs))
	maxLSN := int64(0)
	for i, s := range segs {
		known[i] = segment{seq: s.Seq, size: int64(len(s.Data))}
		for data := s.Data; len(data) > 0; {
			r, rest, err := DecodeRecord(data)
			if err != nil {
				break
			}
			if !newestOnly || i == len(segs)-1 {
				if err := apply(r); err != nil {
					return err
				}
			}
			known[i].n++
			maxLSN = max(maxLSN, r.LSN)
			data = rest
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextLSN = max(l.nextLSN, maxLSN+1)
	if len(l.segs) == 0 {
		l.segs = known
	}
	return nil
}
