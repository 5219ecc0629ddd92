package wal

import (
	"testing"

	"repro/internal/metrics"
)

func TestAppendAssignsLSNs(t *testing.T) {
	l := New(metrics.NopEnv())
	lsn1 := l.Append(Record{TxnID: 1, Type: RecInsert, Key: []byte("a")})
	lsn2 := l.Append(Record{TxnID: 1, Type: RecUpsert, Key: []byte("b")})
	if lsn1 != 1 || lsn2 != 2 {
		t.Fatalf("LSNs = %d, %d", lsn1, lsn2)
	}
	if l.MaxLSN() != 2 || l.Len() != 2 {
		t.Fatalf("MaxLSN=%d Len=%d", l.MaxLSN(), l.Len())
	}
}

func TestReplayOnlyCommitted(t *testing.T) {
	l := New(metrics.NopEnv())
	l.Append(Record{TxnID: 1, Type: RecInsert, Key: []byte("committed")})
	l.Commit(1)
	l.Append(Record{TxnID: 2, Type: RecInsert, Key: []byte("aborted")})
	l.Append(Record{TxnID: 2, Type: RecAbort})
	l.Append(Record{TxnID: 3, Type: RecInsert, Key: []byte("in-flight")})

	var replayed []string
	err := l.Replay(0, func(r Record) error {
		replayed = append(replayed, string(r.Key))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 1 || replayed[0] != "committed" {
		t.Fatalf("replayed %v", replayed)
	}
}

func TestReplayFromLSN(t *testing.T) {
	l := New(metrics.NopEnv())
	for i := 0; i < 5; i++ {
		id := int64(i + 1)
		l.Append(Record{TxnID: id, Type: RecUpsert, Key: []byte{byte(i)}})
		l.Commit(id)
	}
	// Records have LSNs 1,3,5,7,9 (commits interleave).
	var n int
	if err := l.Replay(5, func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d records past LSN 5, want 2", n)
	}
}

func TestAppendChargesClock(t *testing.T) {
	env := metrics.NewEnv()
	l := New(env)
	l.Append(Record{TxnID: 1, Type: RecInsert})
	if env.Clock.Now() != env.CPU.LogAppend {
		t.Fatalf("log append charged %v", env.Clock.Now())
	}
}
