package wal

import (
	"errors"
	"testing"

	"repro/internal/metrics"
)

func TestAppendAssignsLSNs(t *testing.T) {
	l := New(metrics.NopEnv(), nil)
	lsn1 := mustAppend(t, l, Record{Type: RecInsert, Key: []byte("a")})
	lsn2 := mustAppend(t, l, Record{Type: RecUpsert, Key: []byte("b")})
	if lsn1 != 1 || lsn2 != 2 {
		t.Fatalf("LSNs = %d, %d", lsn1, lsn2)
	}
	if l.MaxLSN() != 2 || l.Len() != 2 {
		t.Fatalf("MaxLSN=%d Len=%d", l.MaxLSN(), l.Len())
	}
}

func TestAppendChargesClock(t *testing.T) {
	env := metrics.NewEnv()
	l := New(env, nil)
	mustAppend(t, l, Record{Type: RecInsert})
	if env.Clock.Now() != env.CPU.LogAppend {
		t.Fatalf("log append charged %v", env.Clock.Now())
	}
}

// TestAppendPerRecordSync: without a group committer the one record of a
// write is its own durability point — one sink append, synced.
func TestAppendPerRecordSync(t *testing.T) {
	sink := &recordingSink{}
	l := New(nil, sink)
	for i := 0; i < 3; i++ {
		mustAppend(t, l, Record{Type: RecUpsert, Key: []byte{byte(i)}, TS: int64(i)})
	}
	if sink.appends != 3 || sink.syncs != 3 {
		t.Fatalf("3 writes made %d sink appends, %d of them synced; want 3 and 3", sink.appends, sink.syncs)
	}
}

// TestAppendFailureDropsRecord: a failed sink append fails THIS write, takes
// its record out of the memory image, wedges the log and — in group-commit
// mode — retracts the announced commit instead of parking on it.
func TestAppendFailureDropsRecord(t *testing.T) {
	boom := errors.New("append failed")
	for _, grouped := range []bool{false, true} {
		sink := &recordingSink{}
		gc := &scriptedGroup{}
		l := New(nil, sink)
		if grouped {
			l.AttachGroupCommitter(gc)
		}
		mustAppend(t, l, Record{Type: RecUpsert, Key: []byte("kept"), TS: 1})
		sink.fail = boom
		if _, err := l.Append(Record{Type: RecUpsert, Key: []byte("lost"), TS: 2}, nil); !errors.Is(err, boom) {
			t.Fatalf("grouped=%v: Append error = %v, want the sink failure", grouped, err)
		}
		if err := l.DeviceErr(); !errors.Is(err, boom) {
			t.Fatalf("grouped=%v: DeviceErr = %v, want the sticky failure", grouped, err)
		}
		if got := replayedKeys(t, l); got != "kept" {
			t.Fatalf("grouped=%v: log replays %q, want only the write that was appended", grouped, got)
		}
		if grouped && (gc.announced != 2 || gc.waits != 1 || gc.retracted != 1) {
			t.Fatalf("group protocol = announce %d / wait %d / retract %d, want 2/1/1", gc.announced, gc.waits, gc.retracted)
		}
	}
}
