package wal

import (
	"errors"
	"testing"

	"repro/internal/metrics"
)

func TestAppendAssignsLSNs(t *testing.T) {
	l := New(metrics.NopEnv())
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
	l := New(env)
	mustAppend(t, l, Record{Type: RecInsert})
	if env.Clock.Now() != env.CPU.LogAppend {
		t.Fatalf("log append charged %v", env.Clock.Now())
	}
}

// TestAppendFailureDropsRecord: a failed sink append fails THIS write, takes
// its record out of the memory image, wedges the log and retracts the
// announced commit instead of parking on it.
func TestAppendFailureDropsRecord(t *testing.T) {
	boom := errors.New("append failed")
	sink := &recordingSink{}
	gc := &scriptedGroup{}
	l := openOn(t, sink, gc)
	mustAppend(t, l, Record{Type: RecUpsert, Key: []byte("kept"), TS: 1})
	sink.fail = boom
	if _, err := l.Append(Record{Type: RecUpsert, Key: []byte("lost"), TS: 2}, nil); !errors.Is(err, boom) {
		t.Fatalf("Append error = %v, want the sink failure", err)
	}
	if err := l.DeviceErr(); !errors.Is(err, boom) {
		t.Fatalf("DeviceErr = %v, want the sticky failure", err)
	}
	if got := replayedKeys(t, l); got != "kept" {
		t.Fatalf("log replays %q, want only the write that was appended", got)
	}
	if gc.announced != 2 || gc.waits != 1 || gc.retracted != 1 {
		t.Fatalf("group protocol = announce %d / wait %d / retract %d, want 2/1/1", gc.announced, gc.waits, gc.retracted)
	}
}
