// Package wal implements write-ahead logging and recovery in the style of
// AsterixDB (Section 2.2): index-level logical log records under a
// no-steal/no-force buffer policy. Rollback applies inverse operations in
// reverse order; crash recovery replays committed transactions past the
// maximum component LSN. Each delete/upsert record carries the update bit
// of Section 5.2, telling recovery whether the operation flipped a mutable
// bitmap bit in a disk component.
//
// # Durability
//
// On a durable device the log streams every record to a Sink. Two commit
// disciplines exist:
//
//   - Per-record: CommitChecked appends the commit record with sync set,
//     and the sink fsyncs before returning. Simple, but every committer
//     pays a full fsync.
//   - Group commit: with a GroupCommitter attached, CommitDurable appends
//     the commit record unsynced and parks on the open commit group; one
//     member issues a single fsync covering everyone parked and wakes the
//     group. Batch/CommitBatched/WaitBatch extend this to engine batches —
//     one fsync per batch, not per mutation.
//
// Either way a write is acknowledged only after the fsync that covers its
// commit record returns, and a failed fsync fails exactly the writers that
// fsync was meant to cover (per-waiter error delivery) while wedging the
// log for everyone after.
//
// # Lifetime
//
// The log is a sequence of segments. Rotate seals the live one and starts
// the next; the dataset rotates inside the writer drain of every memtable
// freeze, and once the batch frozen there is installed and its manifest is
// durable, DropBefore discards every older segment wholesale — the memory
// image and, through the sink, the file. Nothing is ever rewritten: a
// reopened log keeps the segments it recovered read-only and appends to a
// fresh one. What the log retains per record is its encoding, the very
// bytes the sink received; Replay decodes them.
package wal

import (
	"encoding/binary"
	"slices"
	"sync"

	"repro/internal/metrics"
)

// RecordType enumerates logical log record kinds.
type RecordType byte

// Log record kinds.
const (
	RecInsert RecordType = iota + 1
	RecDelete
	RecUpsert
	RecCommit
	RecAbort
)

// Record is one logical log record.
type Record struct {
	LSN   int64
	TxnID int64
	Type  RecordType
	// Index names the LSM index the operation applies to.
	Index string
	Key   []byte
	Value []byte
	TS    int64
	// UpdateBit marks delete/upsert operations that also flipped a mutable
	// bitmap bit in a disk component (Section 5.2); recovery replays the
	// bitmap mutation only when it is set.
	UpdateBit bool
	// PrevValue is the pre-image needed to undo an upsert logically.
	PrevValue []byte
	HadPrev   bool
}

// Sink receives the binary encoding of every appended record, letting a
// durable device persist the log as it grows. Append with sync set marks a
// commit point: the sink must make everything appended so far durable
// before returning (fsync on a file-backed device). The sink must neither
// retain nor modify encoded — it aliases the log's own memory image.
type Sink interface {
	Append(encoded []byte, sync bool) error
	// Rotate seals the live segment — everything appended to it is durable
	// when Rotate returns — and directs later appends to a fresh segment
	// numbered seq, whose existence is durable too.
	Rotate(seq uint64) error
	// Drop discards the sealed segment seq. Like a component delete it
	// cannot fail: a segment that survives is dropped by the first cut
	// after the next reopen.
	Drop(seq uint64)
}

// Segment is one log segment as a device holds it: the unit of Rotate and
// Drop, and of what a reopen hands to OpenPersisted.
type Segment struct {
	Seq  uint64
	Data []byte
}

// segment is the memory image of one log segment: the encodings of its
// records back to back, exactly the bytes the sink was given.
type segment struct {
	seq uint64
	buf []byte
	n   int // records in buf
}

// drop removes the record with the given LSN. The survivors move to a fresh
// buffer: a sink append still in flight may be reading the old one.
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
// A committer announces intent, appends its commit record to the sink
// without sync, and then Waits: the waiter joins the open commit group, one
// member becomes the leader and issues a single covering fsync, and every
// member of the group receives that fsync's result. Announce/Retract bound
// the window a leader may hold the group open for stragglers that have
// declared intent but not yet appended (see filedev.GroupSyncer).
type GroupCommitter interface {
	// Announce declares that a commit append is about to happen; every
	// Announce is balanced by exactly one Wait or Retract.
	Announce()
	// Retract withdraws an announced commit whose append failed.
	Retract()
	// Wait joins the open commit group and blocks until a covering fsync
	// completes, returning its result. The caller's commit records must be
	// fully appended to the sink before Wait is called; commits says how
	// many of them this waiter carries (1 for a single write, the batch
	// size for a deferred batch — group-size accounting only).
	Wait(commits int64) error
}

// Log is an append-only logical log. The paper's configuration dedicates a
// separate device to logging, so appends are charged at a flat group-commit
// cost rather than against the LSM data disk. With a Sink attached, every
// record is additionally streamed to the sink in its binary encoding and
// commit/abort records are synced (real write-ahead durability).
type Log struct {
	env   *metrics.Env
	sink  Sink
	group GroupCommitter // non-nil only in group-commit mode

	mu      sync.Mutex
	segs    []segment // oldest to newest; appends go to the last
	nextLSN int64
	maxTxn  int64
	// sinkErr is the first sink failure; once set the log is considered
	// wedged for durability purposes and the next logged write surfaces it.
	sinkErr error
	// yield is the deterministic-simulation scheduling hook, invoked at the
	// instrumented points in the group-commit path (nil = off).
	yield func(point string)
	// keepCommitOnFailedFsync reintroduces a historical bug for simulation
	// validation; see SetUnsafeKeepCommitOnFailedFsync.
	keepCommitOnFailedFsync bool
}

// New creates an empty log.
func New(env *metrics.Env) *Log { return NewWithSink(env, nil) }

// NewWithSink creates an empty log streaming its records to sink, which
// must be ready to take appends for segment 1.
func NewWithSink(env *metrics.Env, sink Sink) *Log {
	return &Log{env: env, sink: sink, nextLSN: 1, segs: []segment{{seq: 1}}}
}

// OpenPersisted rebuilds a log from the segments a previous session left on
// a device, oldest first. Each segment ends at its first corrupt or
// truncated record (the torn tail of a crash mid-append); the segments stay
// as they are — nothing is appended to or cut out of a recovered segment —
// and the session's appends go to a fresh one, started through sink here.
// LSNs keep ascending across sessions.
func OpenPersisted(env *metrics.Env, segs []Segment, sink Sink) (*Log, error) {
	l := &Log{env: env, sink: sink, nextLSN: 1}
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
			l.maxTxn = max(l.maxTxn, r.TxnID)
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
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, size := uint64(1), 0
	if n := len(l.segs); n > 0 {
		seq, size = l.segs[n-1].seq+1, len(l.segs[n-1].buf)
	}
	if l.sink != nil {
		if err := l.sink.Rotate(seq); err != nil {
			if l.sinkErr == nil {
				l.sinkErr = err
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
	sink := l.sink
	l.mu.Unlock()
	if sink != nil {
		for _, s := range dropped {
			sink.Drop(s.seq)
		}
	}
}

// AttachGroupCommitter switches the log into group-commit mode: commit
// records are appended to the sink WITHOUT a per-record fsync, and
// CommitDurable/WaitBatch block on gc until one covering fsync lands.
// Attach before the first append; the log does not synchronize the switch
// against in-flight writers.
func (l *Log) AttachGroupCommitter(gc GroupCommitter) { l.group = gc }

// GroupCommitEnabled reports whether a group committer is attached (and a
// sink exists for it to cover).
func (l *Log) GroupCommitEnabled() bool { return l.group != nil && l.sink != nil }

// Append adds a record, assigning and returning its LSN. Callers that
// need this call's own durability result use AppendChecked.
func (l *Log) Append(r Record) int64 {
	//lsm:allow-discard Append is the documented fire-and-forget form; AppendChecked carries this call's durability result
	lsn, _ := l.AppendChecked(r)
	return lsn
}

// AppendChecked adds a record and returns THIS call's sink error — not the
// log-wide sticky one, which may belong to a concurrent writer whose own
// append failed while ours durably committed. On a sink failure the
// in-memory record is removed again, so the log's memory image always
// matches the device's rolled-back state (an in-session Crash/Recover must
// not replay a write whose durable append was reported as failed).
func (l *Log) AppendChecked(r Record) (int64, error) {
	sync := r.Type == RecCommit || r.Type == RecAbort
	return l.appendChecked(r, sync)
}

func (l *Log) appendChecked(r Record, sync bool) (int64, error) {
	l.mu.Lock()
	r.LSN = l.nextLSN
	l.nextLSN++
	l.maxTxn = max(l.maxTxn, r.TxnID)
	live := &l.segs[len(l.segs)-1]
	start := len(live.buf)
	live.buf = AppendRecord(live.buf, r)
	live.n++
	// The sink reads the record out of the memory image: later appends only
	// write past it, and a drop moves the survivors instead of shifting them.
	enc := live.buf[start:len(live.buf):len(live.buf)]
	sink := l.sink
	l.mu.Unlock()
	var sinkErr error
	if sink != nil {
		if sinkErr = sink.Append(enc, sync); sinkErr != nil {
			l.poisonAndDrop(sinkErr, r.LSN)
		}
	}
	if l.env != nil {
		l.env.ChargeLogAppend()
	}
	return r.LSN, sinkErr
}

// poisonAndDrop records a durability failure: the sticky sink error wedges
// the log (the next logged write surfaces it) and every listed commit LSN
// is removed from the memory image, so an in-session Crash/Recover can
// never replay a write whose covering fsync was reported as failed.
func (l *Log) poisonAndDrop(err error, lsns ...int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sinkErr == nil {
		l.sinkErr = err
	}
	for _, lsn := range lsns {
		for i := len(l.segs) - 1; i >= 0 && !l.segs[i].drop(lsn); i-- {
		}
	}
}

// SinkErr returns the first sink (durability) failure, if any.
func (l *Log) SinkErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkErr
}

// MaxTxnID returns the largest transaction ID the log has held (0 when
// none). Reopen seeds the transaction-ID allocator past it: replay matches
// commits to data records by ID, so IDs must never recycle across process
// generations.
func (l *Log) MaxTxnID() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.maxTxn
}

// SetYield installs a scheduling hook invoked at the instrumented points
// in the group-commit path (after a commit record is appended unsynced,
// before the committer parks on its group). The deterministic simulation
// harness uses it to perturb how committers interleave with group leaders.
// A nil hook disables the points.
func (l *Log) SetYield(fn func(point string)) {
	l.mu.Lock()
	l.yield = fn
	l.mu.Unlock()
}

func (l *Log) yieldHook() func(string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.yield
}

// SetUnsafeKeepCommitOnFailedFsync reintroduces, on purpose, the historical
// bug this package once shipped: a commit whose covering fsync failed was
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

func (l *Log) dropCommitOnFailedFsync() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.keepCommitOnFailedFsync
}

// Commit appends a commit record for txn.
func (l *Log) Commit(txnID int64) int64 {
	return l.Append(Record{TxnID: txnID, Type: RecCommit})
}

// CommitChecked appends a commit record for txn, returning this call's
// durability result (the commit fsync on a durable device).
func (l *Log) CommitChecked(txnID int64) (int64, error) {
	return l.AppendChecked(Record{TxnID: txnID, Type: RecCommit})
}

// CommitDurable appends txn's commit record and blocks until it is durable.
// Without a group committer this is CommitChecked (a per-record fsync
// through the sink). With one, the record is appended unsynced and the call
// parks on the open commit group: one leader fsyncs for everyone parked,
// so concurrent committers share a single fsync. The returned error is THIS
// commit's own durability result — a group member only ever fails with the
// error of the fsync that was meant to cover it, never a stranger's. On
// failure the commit record is removed from the memory image and the log
// is wedged (sticky sink error), because the device's log area is no longer
// trustworthy.
func (l *Log) CommitDurable(txnID int64) (int64, error) {
	if !l.GroupCommitEnabled() {
		return l.CommitChecked(txnID)
	}
	gc := l.group
	gc.Announce()
	lsn, err := l.appendChecked(Record{TxnID: txnID, Type: RecCommit}, false)
	if err != nil {
		gc.Retract()
		return lsn, err
	}
	if yield := l.yieldHook(); yield != nil {
		yield("wal.commit.appended")
	}
	if err := gc.Wait(1); err != nil {
		if l.dropCommitOnFailedFsync() {
			l.poisonAndDrop(err, lsn)
		}
		return lsn, err
	}
	return lsn, nil
}

// Batch defers commit durability across a run of writes: each commit
// record is appended unsynced and registered here, and one WaitBatch at
// the end parks on the commit group once, so an engine batch pays a single
// fsync instead of one per mutation. Only meaningful in group-commit mode;
// a Batch is not safe for concurrent use.
type Batch struct {
	lsns []int64
}

// NewBatch returns a deferred-durability handle, or nil when the log is
// not in group-commit mode (callers then fall back to per-commit
// durability, preserving the non-grouped semantics exactly).
func (l *Log) NewBatch() *Batch {
	if l == nil || !l.GroupCommitEnabled() {
		return nil
	}
	return &Batch{}
}

// CommitBatched appends txn's commit record unsynced and registers it with
// b; the commit becomes durable — and may be acknowledged — only after a
// successful WaitBatch.
func (l *Log) CommitBatched(txnID int64, b *Batch) (int64, error) {
	lsn, err := l.appendChecked(Record{TxnID: txnID, Type: RecCommit}, false)
	if err != nil {
		return lsn, err
	}
	b.lsns = append(b.lsns, lsn)
	return lsn, nil
}

// WaitBatch blocks until every commit registered in b is covered by a WAL
// fsync. On failure every registered commit is removed from the memory
// image and the log is wedged — none of the batch's writes may be
// acknowledged, and an in-session Crash/Recover will not replay them.
func (l *Log) WaitBatch(b *Batch) error {
	if b == nil || len(b.lsns) == 0 {
		return nil
	}
	gc := l.group
	gc.Announce()
	if yield := l.yieldHook(); yield != nil {
		yield("wal.batch.announced")
	}
	if err := gc.Wait(int64(len(b.lsns))); err != nil {
		if l.dropCommitOnFailedFsync() {
			l.poisonAndDrop(err, b.lsns...)
		}
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

// Replay invokes apply for every data record of a committed transaction
// with LSN greater than fromLSN, in log order. Records of uncommitted or
// aborted transactions are skipped (no-steal: nothing to undo). A data
// record counts as committed only when its transaction's commit record
// appears LATER in the log — a commit can never cover work that had not
// been logged yet, so positional matching keeps a dead leftover record
// from marrying an unrelated commit under a colliding transaction ID.
// The records handed to apply alias the log's memory image.
func (l *Log) Replay(fromLSN int64, apply func(Record) error) error {
	l.mu.Lock()
	var records []Record
	for i := range l.segs {
		records = slices.Grow(records, l.segs[i].n)
		for data := l.segs[i].buf; len(data) > 0; {
			r, rest, err := DecodeRecord(data)
			if err != nil {
				l.mu.Unlock()
				return err
			}
			records = append(records, r)
			data = rest
		}
	}
	l.mu.Unlock()

	for i, r := range committedMask(records) {
		if !r {
			continue
		}
		rec := records[i]
		if rec.LSN <= fromLSN {
			continue
		}
		if err := apply(rec); err != nil {
			return err
		}
	}
	return nil
}

// committedMask marks, per record, the data records whose transaction has
// a commit record later in the log (reverse scan).
func committedMask(records []Record) []bool {
	ok := make([]bool, len(records))
	commitAhead := make(map[int64]bool)
	for i := len(records) - 1; i >= 0; i-- {
		switch records[i].Type {
		case RecCommit:
			commitAhead[records[i].TxnID] = true
		case RecAbort:
			// An abort closes the transaction: data records before it are
			// rolled back even if the ID is (incorrectly) reused later.
			commitAhead[records[i].TxnID] = false
		default:
			ok[i] = commitAhead[records[i].TxnID]
		}
	}
	return ok
}
