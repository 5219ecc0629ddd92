package wal

import (
	"errors"
	"testing"
)

// recordingSink captures every append, its sync flag and the byte stream a
// device's WAL area would hold: image is everything ever appended, segs
// what each segment still on the "device" holds.
type recordingSink struct {
	appends int
	syncs   int
	image   []byte
	live    uint64 // 0 until the first Rotate: appends then land in segment 1
	segs    map[uint64][]byte
	dropped []uint64
}

func (s *recordingSink) Append(encoded []byte, sync bool) error {
	s.appends++
	s.image = append(s.image, encoded...)
	if s.segs == nil {
		s.segs = map[uint64][]byte{}
	}
	seq := max(s.live, 1)
	s.segs[seq] = append(s.segs[seq], encoded...)
	if sync {
		s.syncs++
	}
	return nil
}

func (s *recordingSink) Rotate(seq uint64) error {
	if s.segs == nil {
		s.segs = map[uint64][]byte{}
	}
	if _, exists := s.segs[seq]; exists {
		return errors.New("recordingSink: rotation onto an existing segment")
	}
	s.live, s.segs[seq] = seq, nil
	return nil
}

func (s *recordingSink) Drop(seq uint64) {
	delete(s.segs, seq)
	s.dropped = append(s.dropped, seq)
}

// oneSegment wraps a byte stream as the only segment a device holds.
func oneSegment(image []byte) []Segment { return []Segment{{Seq: 1, Data: image}} }

// scriptedGroup is a GroupCommitter whose Wait results are scripted.
type scriptedGroup struct {
	announced int
	retracted int
	waits     int
	commits   int64
	errs      []error // per-Wait results; nil beyond the list
}

func (g *scriptedGroup) Announce() { g.announced++ }
func (g *scriptedGroup) Retract()  { g.retracted++ }
func (g *scriptedGroup) Wait(commits int64) error {
	n := g.waits
	g.waits++
	g.commits += commits
	if n < len(g.errs) {
		return g.errs[n]
	}
	return nil
}

// TestCommitDurableGroupModeDefersSync: in group mode no append carries a
// per-record sync — durability comes from the group Wait, exactly once per
// commit.
func TestCommitDurableGroupModeDefersSync(t *testing.T) {
	sink := &recordingSink{}
	gc := &scriptedGroup{}
	l := NewWithSink(nil, sink)
	l.AttachGroupCommitter(gc)

	l.Append(Record{TxnID: 1, Type: RecUpsert, Key: []byte("k"), Value: []byte("v"), TS: 1})
	if _, err := l.CommitDurable(1); err != nil {
		t.Fatal(err)
	}
	if sink.syncs != 0 {
		t.Fatalf("sync appends = %d, want 0 (durability is the group's job)", sink.syncs)
	}
	if gc.announced != 1 || gc.waits != 1 || gc.retracted != 0 {
		t.Fatalf("group protocol = announce %d / wait %d / retract %d, want 1/1/0",
			gc.announced, gc.waits, gc.retracted)
	}
	replayed := 0
	if err := l.Replay(0, func(Record) error { replayed++; return nil }); err != nil {
		t.Fatal(err)
	}
	if replayed != 1 {
		t.Fatalf("replayed %d records, want 1", replayed)
	}
}

// TestCommitDurableGroupFailure: a failed covering fsync fails THIS commit
// — the commit record leaves the memory image (replay must not resurrect
// the write) and the log wedges with the sticky error.
func TestCommitDurableGroupFailure(t *testing.T) {
	boom := errors.New("covering fsync failed")
	sink := &recordingSink{}
	gc := &scriptedGroup{errs: []error{boom}}
	l := NewWithSink(nil, sink)
	l.AttachGroupCommitter(gc)

	l.Append(Record{TxnID: 1, Type: RecUpsert, Key: []byte("k"), Value: []byte("v"), TS: 1})
	if _, err := l.CommitDurable(1); !errors.Is(err, boom) {
		t.Fatalf("CommitDurable error = %v, want the fsync failure", err)
	}
	if err := l.SinkErr(); !errors.Is(err, boom) {
		t.Fatalf("SinkErr = %v, want the sticky fsync failure", err)
	}
	if err := l.Replay(0, func(r Record) error {
		return errors.New("replayed a write whose covering fsync failed")
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWaitBatchFailureDropsEveryDeferredCommit: a deferred batch whose
// covering fsync fails loses ALL its commit records — none of its writes
// may survive an in-session recovery.
func TestWaitBatchFailureDropsEveryDeferredCommit(t *testing.T) {
	boom := errors.New("covering fsync failed")
	sink := &recordingSink{}
	gc := &scriptedGroup{errs: []error{boom}}
	l := NewWithSink(nil, sink)
	l.AttachGroupCommitter(gc)

	b := l.NewBatch()
	if b == nil {
		t.Fatal("NewBatch returned nil in group-commit mode")
	}
	for txn := int64(1); txn <= 3; txn++ {
		l.Append(Record{TxnID: txn, Type: RecUpsert, Key: []byte{byte(txn)}, TS: txn})
		if _, err := l.CommitBatched(txn, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitBatch(b); !errors.Is(err, boom) {
		t.Fatalf("WaitBatch error = %v, want the fsync failure", err)
	}
	if gc.commits != 3 {
		t.Fatalf("group saw %d commits, want 3 (one batch waiter carrying all)", gc.commits)
	}
	if err := l.Replay(0, func(r Record) error {
		return errors.New("replayed a write from the failed batch")
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWaitBatchSuccessIsOneWait: a 3-write batch parks on the group once.
func TestWaitBatchSuccessIsOneWait(t *testing.T) {
	sink := &recordingSink{}
	gc := &scriptedGroup{}
	l := NewWithSink(nil, sink)
	l.AttachGroupCommitter(gc)

	b := l.NewBatch()
	for txn := int64(1); txn <= 3; txn++ {
		l.Append(Record{TxnID: txn, Type: RecUpsert, Key: []byte{byte(txn)}, TS: txn})
		if _, err := l.CommitBatched(txn, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitBatch(b); err != nil {
		t.Fatal(err)
	}
	if gc.waits != 1 || gc.commits != 3 {
		t.Fatalf("waits=%d commits=%d, want one wait carrying 3 commits", gc.waits, gc.commits)
	}
	if sink.syncs != 0 {
		t.Fatalf("sync appends = %d, want 0", sink.syncs)
	}
	replayed := 0
	if err := l.Replay(0, func(Record) error { replayed++; return nil }); err != nil {
		t.Fatal(err)
	}
	if replayed != 3 {
		t.Fatalf("replayed %d records, want 3", replayed)
	}
}

// TestNewBatchNilWithoutGroupMode: without a group committer (or on a nil
// log) NewBatch must return nil so callers keep per-commit durability.
func TestNewBatchNilWithoutGroupMode(t *testing.T) {
	if b := NewWithSink(nil, &recordingSink{}).NewBatch(); b != nil {
		t.Fatal("NewBatch without a group committer returned a batch")
	}
	var l *Log
	if b := l.NewBatch(); b != nil {
		t.Fatal("NewBatch on a nil log returned a batch")
	}
}
