package wal

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestRecordRoundTrip(t *testing.T) {
	cases := []Record{
		{LSN: 1, Type: RecInsert, Key: []byte("k"), Value: []byte("v"), TS: 42},
		{LSN: 2, Type: RecDelete, Key: []byte("k2"), TS: -1, UpdateBit: true},
		{LSN: 3, Type: RecUpsert, Key: []byte("k3"), Value: bytes.Repeat([]byte{1}, 500), TS: 1 << 50},
		{LSN: 1 << 40, Type: RecUpsert},
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
		if !recordsEqual(got, want) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(lsn, ts int64, typ uint8, key, value []byte, ub bool) bool {
		want := Record{LSN: lsn, TS: ts, Type: RecordType(typ%3 + 1), Key: key, Value: value, UpdateBit: ub}
		got, rest, err := DecodeRecord(AppendRecord(nil, want))
		return err == nil && len(rest) == 0 && recordsEqual(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRecordCorrupt(t *testing.T) {
	r := Record{LSN: 1, Type: RecInsert, Key: []byte("key"), Value: []byte("value")}
	buf := AppendRecord(nil, r)
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := DecodeRecord(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, _, err := DecodeRecord(nil); err == nil {
		t.Fatal("nil buffer accepted")
	}
	// The decoder takes only what the encoder makes: an unknown record type,
	// an unknown flag and a body longer than its fields are all corrupt, so
	// a segment in another layout is never mis-read as records.
	header := 4 + 1 // length prefix, one-byte LSN varint
	for name, mutate := range map[string]func([]byte) []byte{
		"type 0":         func(b []byte) []byte { b[header] = 0; return b },
		"type 4":         func(b []byte) []byte { b[header] = 4; return b },
		"unknown flag":   func(b []byte) []byte { b[header+1] |= 2; return b },
		"trailing bytes": func(b []byte) []byte { b[3]++; return append(b, 0) },
	} {
		if _, _, err := DecodeRecord(mutate(bytes.Clone(buf))); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("%s: err = %v, want ErrCorruptRecord", name, err)
		}
	}
}

// TestLogPersistedRoundTrip runs the reopen path: a second log opened over
// the device the first one wrote replays the same records, adopts the
// segment with its size and record count, and continues the LSN sequence
// in a fresh segment.
func TestLogPersistedRoundTrip(t *testing.T) {
	dev := newTestDevice()
	l := openOn(t, nil, dev, nil)
	mustAppend(t, l, Record{Type: RecUpsert, Key: []byte("a"), Value: []byte("1"), TS: 10})
	mustAppend(t, l, Record{Type: RecDelete, Key: []byte("b"), TS: 11, UpdateBit: true})

	l2 := openOn(t, nil, dev, nil)
	if l2.Bytes() != l.Bytes() || l2.Len() != l.Len() || l2.MaxLSN() != l.MaxLSN() {
		t.Fatalf("bytes=%d/%d len=%d/%d maxLSN=%d/%d", l2.Bytes(), l.Bytes(), l2.Len(), l.Len(), l2.MaxLSN(), l.MaxLSN())
	}
	if a, b := replayedKeys(t, l), replayedKeys(t, l2); a != "a,b" || b != a {
		t.Fatalf("replay diverges: %q live, %q reopened, want a,b", a, b)
	}
	// Appends continue with fresh LSNs, in segment 2.
	if lsn := mustAppend(t, l2, Record{Type: RecInsert, Key: []byte("c")}); lsn != l.MaxLSN()+1 {
		t.Fatalf("post-reopen LSN = %d", lsn)
	}
	segs, err := dev.LoadWAL()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].Seq != 1 || segs[1].Seq != 2 || int64(len(segs[0].Data)) != l.Bytes() {
		t.Fatalf("device holds %v, want segment 1 as the first log left it and a fresh segment 2", segs)
	}
}

// TestReplayTornTail cuts a segment at every byte: replay decodes the
// records before the torn one, and the reopened log counts exactly them
// while its size is what the device holds.
func TestReplayTornTail(t *testing.T) {
	first := AppendRecord(nil, Record{LSN: 1, Type: RecInsert, Key: []byte("x")})
	image := AppendRecord(slices.Clone(first), Record{LSN: 2, Type: RecDelete, Key: []byte("y"), TS: 7})
	for cut := 0; cut < len(image); cut++ {
		dev := newTestDevice()
		if err := dev.RotateWAL(1); err != nil {
			t.Fatal(err)
		}
		if err := dev.AppendWAL(image[:cut]); err != nil {
			t.Fatal(err)
		}
		kept := Open(nil, dev, &scriptedGroup{})
		keys := replayedKeys(t, kept)
		wantKeys, wantLen := "", 0
		if cut >= len(first) {
			wantKeys, wantLen = "x", 1
		}
		if keys != wantKeys || kept.Len() != wantLen || kept.Bytes() != int64(cut) || kept.MaxLSN() != int64(wantLen) {
			t.Fatalf("cut at %d: replayed %q, %d records, %d bytes, max LSN %d; want %q, %d, %d, %d",
				cut, keys, kept.Len(), kept.Bytes(), kept.MaxLSN(), wantKeys, wantLen, cut, wantLen)
		}
	}
}
