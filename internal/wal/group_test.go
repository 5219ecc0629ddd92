package wal

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/storage"
)

// testDevice is a simulated disk whose log appends are counted and can be
// made to fail.
type testDevice struct {
	*storage.Disk
	appends int
	fail    error // when set, every append fails with it and keeps nothing
}

func newTestDevice() *testDevice {
	return &testDevice{Disk: storage.NewDisk(storage.ScaledHDD(512))}
}

func (d *testDevice) AppendWAL(encoded []byte) error {
	if d.fail != nil {
		return d.fail
	}
	d.appends++
	return d.Disk.AppendWAL(encoded)
}

// openOn opens the log over dev the way a dataset does — replay, then
// rotate — committing through gc (a fresh scriptedGroup when nil).
func openOn(t *testing.T, env *metrics.Env, dev storage.Device, gc GroupCommitter) *Log {
	t.Helper()
	if gc == nil {
		gc = &scriptedGroup{}
	}
	l := Open(env, dev, gc)
	if err := l.Replay(func(Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
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

// replayedKeys returns the keys lg replays from its device, in order,
// comma-separated.
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
// Wait, exactly once per write, and a write is exactly one device append.
func TestCommitDurableGroupModeDefersSync(t *testing.T) {
	dev := newTestDevice()
	gc := &scriptedGroup{}
	l := openOn(t, nil, dev, gc)

	mustAppend(t, l, Record{Type: RecUpsert, Key: []byte("k"), Value: []byte("v"), TS: 1})
	if dev.appends != 1 {
		t.Fatalf("%d appends, want 1", dev.appends)
	}
	if gc.waits != 1 {
		t.Fatalf("%d group waits, want 1", gc.waits)
	}
	if got := replayedKeys(t, l); got != "k" {
		t.Fatalf("replayed %q, want the one write", got)
	}
}

// TestCommitDurableGroupFailure: a failed covering fsync fails THIS write
// and wedges the log with the sticky error. The record is whole in the
// log area, so recovery may replay it: not guaranteed, never "certainly
// absent".
func TestCommitDurableGroupFailure(t *testing.T) {
	boom := errors.New("covering fsync failed")
	l := openOn(t, nil, newTestDevice(), &scriptedGroup{errs: []error{boom}})

	if _, err := l.Append(Record{Type: RecUpsert, Key: []byte("k"), Value: []byte("v"), TS: 1}, nil); !errors.Is(err, boom) {
		t.Fatalf("Append error = %v, want the fsync failure", err)
	}
	if err := l.DeviceErr(); !errors.Is(err, boom) {
		t.Fatalf("DeviceErr = %v, want the sticky fsync failure", err)
	}
	if got := replayedKeys(t, l); got != "k" {
		t.Fatalf("replayed %q, want the record the device holds", got)
	}
}

// TestWaitBatchFailureWedgesTheLog: a deferred batch whose covering fsync
// fails fails as a whole and wedges the log; its records, like the write
// acknowledged before it, are whole in the log area for recovery to read.
func TestWaitBatchFailureWedgesTheLog(t *testing.T) {
	boom := errors.New("covering fsync failed")
	gc := &scriptedGroup{errs: []error{nil, boom}}
	l := openOn(t, nil, newTestDevice(), gc)

	mustAppend(t, l, Record{Type: RecUpsert, Key: []byte("acked"), TS: 1})
	b := new(Batch)
	for _, k := range []string{"x", "y", "z"} {
		if _, err := l.Append(Record{Type: RecUpsert, Key: []byte(k), TS: 2}, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitBatch(b); !errors.Is(err, boom) {
		t.Fatalf("WaitBatch error = %v, want the fsync failure", err)
	}
	if gc.commits != 1+3 {
		t.Fatalf("group saw %d commits, want 4 (the single write, then one batch waiter carrying 3)", gc.commits)
	}
	if err := l.DeviceErr(); !errors.Is(err, boom) {
		t.Fatalf("DeviceErr = %v, want the sticky fsync failure", err)
	}
	if got := replayedKeys(t, l); got != "acked,x,y,z" {
		t.Fatalf("replayed %q, want every record the device holds", got)
	}
}

// TestWaitBatchSuccessIsOneWait: a 3-write batch parks on the group once.
func TestWaitBatchSuccessIsOneWait(t *testing.T) {
	dev := newTestDevice()
	gc := &scriptedGroup{}
	l := openOn(t, nil, dev, gc)

	b := new(Batch)
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
	if dev.appends != 3 {
		t.Fatalf("%d appends, want 3", dev.appends)
	}
	if got := replayedKeys(t, l); got != "b,c,d" {
		t.Fatalf("replayed %q, want the three batched writes", got)
	}
}
