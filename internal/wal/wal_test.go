package wal

import (
	"errors"
	"testing"

	"repro/internal/metrics"
)

func TestAppendAssignsLSNs(t *testing.T) {
	l := openOn(t, metrics.NopEnv(), newTestDevice(), nil)
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
	l := openOn(t, env, newTestDevice(), nil)
	mustAppend(t, l, Record{Type: RecInsert})
	if env.Clock.Now() != env.CPU.LogAppend {
		t.Fatalf("log append charged %v", env.Clock.Now())
	}
}

// TestAppendFailureDropsRecord: a failed device append fails THIS write,
// leaves its record out of the log area and wedges the log without
// parking on the commit group.
func TestAppendFailureDropsRecord(t *testing.T) {
	boom := errors.New("append failed")
	dev := newTestDevice()
	gc := &scriptedGroup{}
	l := openOn(t, nil, dev, gc)
	mustAppend(t, l, Record{Type: RecUpsert, Key: []byte("kept"), TS: 1})
	dev.fail = boom
	if _, err := l.Append(Record{Type: RecUpsert, Key: []byte("lost"), TS: 2}, nil); !errors.Is(err, boom) {
		t.Fatalf("Append error = %v, want the device failure", err)
	}
	if err := l.DeviceErr(); !errors.Is(err, boom) {
		t.Fatalf("DeviceErr = %v, want the sticky failure", err)
	}
	if got := replayedKeys(t, l); got != "kept" {
		t.Fatalf("log replays %q, want only the write that was appended", got)
	}
	if l.Len() != 1 {
		t.Fatalf("the log counts %d records, want 1", l.Len())
	}
	if gc.waits != 1 {
		t.Fatalf("%d group waits, want 1 (the failed append must not park)", gc.waits)
	}
}
