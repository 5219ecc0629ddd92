package wal

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
)

func TestRecordRoundTrip(t *testing.T) {
	cases := []Record{
		{LSN: 1, TxnID: 7, Type: RecInsert, Index: "dataset", Key: []byte("k"), Value: []byte("v"), TS: 42},
		{LSN: 2, TxnID: -3, Type: RecDelete, Key: []byte("k2"), TS: -1, UpdateBit: true},
		{LSN: 3, TxnID: 9, Type: RecUpsert, Key: []byte("k3"), Value: bytes.Repeat([]byte{1}, 500),
			PrevValue: []byte("old"), HadPrev: true, TS: 1 << 50},
		{LSN: 4, TxnID: 9, Type: RecCommit},
	}
	var buf []byte
	for _, r := range cases {
		buf = AppendRecord(buf, r)
	}
	for i, want := range cases {
		var got Record
		var err error
		got, buf, err = DecodeRecord(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.LSN != want.LSN || got.TxnID != want.TxnID || got.Type != want.Type ||
			got.TS != want.TS || got.UpdateBit != want.UpdateBit || got.HadPrev != want.HadPrev ||
			got.Index != want.Index || !bytes.Equal(got.Key, want.Key) ||
			!bytes.Equal(got.Value, want.Value) || !bytes.Equal(got.PrevValue, want.PrevValue) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(lsn, txn, ts int64, typ uint8, key, value, prev []byte, ub, hp bool) bool {
		want := Record{
			LSN: lsn, TxnID: txn, TS: ts, Type: RecordType(typ%5 + 1),
			Key: key, Value: value, PrevValue: prev, UpdateBit: ub, HadPrev: hp,
		}
		got, rest, err := DecodeRecord(AppendRecord(nil, want))
		if err != nil || len(rest) != 0 {
			return false
		}
		eq := func(a, b []byte) bool {
			return bytes.Equal(a, b) || (len(a) == 0 && len(b) == 0)
		}
		return got.LSN == want.LSN && got.TxnID == want.TxnID && got.TS == want.TS &&
			got.Type == want.Type && got.UpdateBit == ub && got.HadPrev == hp &&
			eq(got.Key, key) && eq(got.Value, value) && eq(got.PrevValue, prev)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRecordCorrupt(t *testing.T) {
	r := Record{LSN: 1, TxnID: 1, Type: RecInsert, Key: []byte("key"), Value: []byte("value")}
	buf := AppendRecord(nil, r)
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := DecodeRecord(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, _, err := DecodeRecord(nil); err == nil {
		t.Fatal("nil buffer accepted")
	}
}

// TestLogPersistedRoundTrip runs the served decode path: the byte stream a
// sink received reopens, through OpenPersisted, as a log that replays the
// same records and continues the LSN sequence.
func TestLogPersistedRoundTrip(t *testing.T) {
	sink := &recordingSink{}
	l := NewWithSink(metrics.NopEnv(), sink)
	l.Append(Record{TxnID: 1, Type: RecUpsert, Key: []byte("a"), Value: []byte("1"), TS: 10})
	l.Commit(1)
	l.Append(Record{TxnID: 2, Type: RecDelete, Key: []byte("b"), TS: 11, UpdateBit: true})
	l.Commit(2)

	l2, err := OpenPersisted(nil, oneSegment(sink.image), nil)
	if err != nil {
		t.Fatal(err)
	}
	if consumed := l2.Bytes(); consumed != int64(len(sink.image)) {
		t.Fatalf("reopen consumed %d of %d image bytes", consumed, len(sink.image))
	}
	if l2.Len() != l.Len() || l2.MaxLSN() != l.MaxLSN() {
		t.Fatalf("len=%d/%d maxLSN=%d/%d", l2.Len(), l.Len(), l2.MaxLSN(), l.MaxLSN())
	}
	// Replay equivalence.
	collect := func(lg *Log) []string {
		var out []string
		if err := lg.Replay(0, func(r Record) error {
			out = append(out, string(r.Key))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := collect(l), collect(l2)
	if len(a) != len(b) {
		t.Fatalf("replay diverges: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at %d", i)
		}
	}
	// Appends continue with fresh LSNs.
	if lsn := l2.Append(Record{TxnID: 3, Type: RecInsert}); lsn != l.MaxLSN()+1 {
		t.Fatalf("post-reopen LSN = %d", lsn)
	}
}

// TestOpenPersistedTornTail cuts the image at every byte: reopen keeps the
// records before the torn one and reports exactly their bytes as decoded.
func TestOpenPersistedTornTail(t *testing.T) {
	sink := &recordingSink{}
	l := NewWithSink(nil, sink)
	l.Append(Record{TxnID: 1, Type: RecInsert, Key: []byte("x")})
	first := len(sink.image)
	l.Commit(1)
	for cut := 0; cut < len(sink.image); cut++ {
		kept, err := OpenPersisted(nil, oneSegment(sink.image[:cut]), nil)
		if err != nil {
			t.Fatal(err)
		}
		wantLen, wantConsumed := 0, int64(0)
		if cut >= first {
			wantLen, wantConsumed = 1, int64(first)
		}
		if consumed := kept.Bytes(); kept.Len() != wantLen || consumed != wantConsumed {
			t.Fatalf("cut at %d: %d records, %d bytes decoded; want %d, %d",
				cut, kept.Len(), consumed, wantLen, wantConsumed)
		}
	}
}
