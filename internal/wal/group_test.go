package wal

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/storage"
)

// recordingSink captures every append and the byte stream a device's WAL
// area would hold: image is everything ever appended, segs what each
// segment still on the "device" holds.
type recordingSink struct {
	appends int
	image   []byte
	live    uint64 // 0 until the first RotateWAL: appends then land in segment 1
	segs    map[uint64][]byte
	dropped []uint64
	fail    error // when set, every append fails with it and keeps nothing
}

func (s *recordingSink) AppendWAL(encoded []byte) error {
	if s.fail != nil {
		return s.fail
	}
	s.appends++
	s.image = append(s.image, encoded...)
	if s.segs == nil {
		s.segs = map[uint64][]byte{}
	}
	seq := max(s.live, 1)
	s.segs[seq] = append(s.segs[seq], encoded...)
	return nil
}

func (s *recordingSink) RotateWAL(seq uint64) error {
	if s.segs == nil {
		s.segs = map[uint64][]byte{}
	}
	if _, exists := s.segs[seq]; exists {
		return errors.New("recordingSink: rotation onto an existing segment")
	}
	s.live, s.segs[seq] = seq, nil
	return nil
}

func (s *recordingSink) DropWAL(seq uint64) {
	delete(s.segs, seq)
	s.dropped = append(s.dropped, seq)
}

// openOn opens a fresh log on sink that commits through gc (a fresh
// scriptedGroup when nil).
func openOn(t *testing.T, sink *recordingSink, gc GroupCommitter) *Log {
	t.Helper()
	if gc == nil {
		gc = &scriptedGroup{}
	}
	l, err := OpenPersisted(nil, nil, sink, gc)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// mustAppend logs r through lg (nil batch: durable on return) and returns
// its LSN.
func mustAppend(t *testing.T, lg *Log, r Record) int64 {
	t.Helper()
	lsn, err := lg.Append(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

// replayedKeys returns the keys lg replays, in order, comma-separated.
func replayedKeys(t *testing.T, lg *Log) string {
	t.Helper()
	var keys []string
	if err := lg.Replay(func(r Record) error {
		keys = append(keys, string(r.Key))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return strings.Join(keys, ",")
}

// oneSegment wraps a byte stream as the only segment a device holds.
func oneSegment(image []byte) []storage.WALSegment {
	return []storage.WALSegment{{Seq: 1, Data: image}}
}

// scriptedGroup is a GroupCommitter whose Wait results are scripted.
type scriptedGroup struct {
	waits   int
	commits int64
	errs    []error // per-Wait results; nil beyond the list
}

func (g *scriptedGroup) Wait(commits int64) error {
	n := g.waits
	g.waits++
	g.commits += commits
	if n < len(g.errs) {
		return g.errs[n]
	}
	return nil
}

// TestCommitDurableGroupModeDefersSync: durability comes from the group
// Wait, exactly once per write, and a write is exactly one sink append.
func TestCommitDurableGroupModeDefersSync(t *testing.T) {
	sink := &recordingSink{}
	gc := &scriptedGroup{}
	l := openOn(t, sink, gc)

	mustAppend(t, l, Record{Type: RecUpsert, Key: []byte("k"), Value: []byte("v"), TS: 1})
	if sink.appends != 1 {
		t.Fatalf("%d appends, want 1", sink.appends)
	}
	if gc.waits != 1 {
		t.Fatalf("%d group waits, want 1", gc.waits)
	}
	if got := replayedKeys(t, l); got != "k" {
		t.Fatalf("replayed %q, want the one write", got)
	}
}

// TestCommitDurableGroupFailure: a failed covering fsync fails THIS write —
// its record leaves the memory image (replay must not resurrect the write)
// and the log wedges with the sticky error.
func TestCommitDurableGroupFailure(t *testing.T) {
	boom := errors.New("covering fsync failed")
	sink := &recordingSink{}
	l := openOn(t, sink, &scriptedGroup{errs: []error{boom}})

	if _, err := l.Append(Record{Type: RecUpsert, Key: []byte("k"), Value: []byte("v"), TS: 1}, nil); !errors.Is(err, boom) {
		t.Fatalf("Append error = %v, want the fsync failure", err)
	}
	if err := l.DeviceErr(); !errors.Is(err, boom) {
		t.Fatalf("DeviceErr = %v, want the sticky fsync failure", err)
	}
	if got := replayedKeys(t, l); got != "" {
		t.Fatalf("replayed %q: a write whose covering fsync failed", got)
	}
}

// TestWaitBatchFailureDropsEveryDeferredCommit: a deferred batch whose
// covering fsync fails loses ALL its records — none of its writes may
// survive an in-session recovery — and spares the ones acknowledged before.
func TestWaitBatchFailureDropsEveryDeferredCommit(t *testing.T) {
	boom := errors.New("covering fsync failed")
	sink := &recordingSink{}
	gc := &scriptedGroup{errs: []error{nil, boom}}
	l := openOn(t, sink, gc)

	mustAppend(t, l, Record{Type: RecUpsert, Key: []byte("acked"), TS: 1})
	b := l.BeginBatch(new(Batch))
	if b == nil {
		t.Fatal("BeginBatch returned nil on a log with a device")
	}
	for i := int64(1); i <= 3; i++ {
		if _, err := l.Append(Record{Type: RecUpsert, Key: []byte{byte(i)}, TS: 1 + i}, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitBatch(b); !errors.Is(err, boom) {
		t.Fatalf("WaitBatch error = %v, want the fsync failure", err)
	}
	if gc.commits != 1+3 {
		t.Fatalf("group saw %d commits, want 4 (the single write, then one batch waiter carrying 3)", gc.commits)
	}
	if got := replayedKeys(t, l); got != "acked" {
		t.Fatalf("replayed %q, want only the write acknowledged before the failed batch", got)
	}
}

// TestWaitBatchSuccessIsOneWait: a 3-write batch parks on the group once.
func TestWaitBatchSuccessIsOneWait(t *testing.T) {
	sink := &recordingSink{}
	gc := &scriptedGroup{}
	l := openOn(t, sink, gc)

	b := l.BeginBatch(new(Batch))
	for i := int64(1); i <= 3; i++ {
		if _, err := l.Append(Record{Type: RecUpsert, Key: []byte{'a' + byte(i)}, TS: i}, b); err != nil {
			t.Fatal(err)
		}
	}
	if gc.waits != 0 {
		t.Fatalf("batched appends parked on the group %d times before the batch wait", gc.waits)
	}
	if err := l.WaitBatch(b); err != nil {
		t.Fatal(err)
	}
	if gc.waits != 1 || gc.commits != 3 {
		t.Fatalf("waits=%d commits=%d, want one wait carrying 3 commits", gc.waits, gc.commits)
	}
	if sink.appends != 3 {
		t.Fatalf("%d appends, want 3", sink.appends)
	}
	if got := replayedKeys(t, l); got != "b,c,d" {
		t.Fatalf("replayed %q, want the three batched writes", got)
	}
}

// TestBeginBatchNilWithoutGroupMode: a log without a device (or a nil log)
// has no fsync to wait for, so BeginBatch returns nil.
func TestBeginBatchNilWithoutGroupMode(t *testing.T) {
	if b := New(nil).BeginBatch(new(Batch)); b != nil {
		t.Fatal("BeginBatch on a memory-only log returned a batch")
	}
	var l *Log
	if b := l.BeginBatch(new(Batch)); b != nil {
		t.Fatal("BeginBatch on a nil log returned a batch")
	}
}
