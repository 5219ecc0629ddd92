package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder: it must
// never panic, and any error it reports must be (or wrap) ErrCorruptRecord
// so recovery can distinguish a torn tail from a programming bug. When a
// record does decode, re-encoding it must round-trip.
func FuzzDecodeRecord(f *testing.F) {
	seed := []Record{
		{}, // type 0: encodes, must not decode
		{LSN: 7, Type: RecInsert},
		{LSN: 3, Type: RecUpsert, Key: []byte("pk-1"), Value: []byte("record-bytes"), TS: 42, UpdateBit: true},
		{LSN: -1, Type: RecDelete, Key: []byte{0, 1, 2}, TS: -9},
	}
	for _, r := range seed {
		f.Add(AppendRecord(nil, r))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 200, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, rest, err := DecodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("decode error %v does not wrap ErrCorruptRecord", err)
			}
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("decoder returned more bytes than it was given")
		}
		enc := AppendRecord(nil, r)
		r2, tail, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded record failed: %v", err)
		}
		if len(tail) != 0 {
			t.Fatalf("re-encoded record left %d trailing bytes", len(tail))
		}
		if !recordsEqual(r, r2) {
			t.Fatalf("round trip mismatch:\n  got  %+v\n  want %+v", r2, r)
		}
	})
}

// FuzzRecordRoundTrip builds a record from fuzzed fields, encodes it, and
// checks that (a) it decodes back identically — or, when its type is not a
// mutation, is refused as corrupt — and (b) every strict prefix of the
// encoding — a corrupt-tail truncation — fails with ErrCorruptRecord rather
// than panicking or mis-decoding.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(int64(1), byte(RecUpsert), []byte("k"), []byte("v"), int64(3), true)
	f.Add(int64(-1), byte(RecDelete), []byte(nil), []byte(nil), int64(-7), false)
	f.Add(int64(1<<62), byte(200), bytes.Repeat([]byte{0xff}, 300), []byte{}, int64(0), true)
	f.Fuzz(func(t *testing.T, lsn int64, typ byte, key, val []byte, ts int64, update bool) {
		r := Record{LSN: lsn, Type: RecordType(typ), Key: key, Value: val, TS: ts, UpdateBit: update}
		enc := AppendRecord(nil, r)
		got, rest, err := DecodeRecord(enc)
		if r.Type < RecInsert || r.Type > RecUpsert {
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("record of type %d decoded: err = %v, want ErrCorruptRecord", typ, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("decode of valid encoding failed: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("decode left %d trailing bytes", len(rest))
		}
		if !recordsEqual(got, r) {
			t.Fatalf("round trip mismatch:\n  got  %+v\n  want %+v", got, r)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, _, err := DecodeRecord(enc[:cut]); !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("truncation at %d/%d bytes: err = %v, want ErrCorruptRecord", cut, len(enc), err)
			}
		}
	})
}

// TestCutDropsCoveredSegments pins the one way the log shrinks: Rotate
// seals the live segment, DropBefore has the device discard every sealed
// segment below a cut — never the live one — and a reopen over what the
// device still holds replays exactly the survivors, keeps a recovered torn
// segment readable up to its tear, and appends to a fresh segment only.
func TestCutDropsCoveredSegments(t *testing.T) {
	dev := newTestDevice()
	l := openOn(t, nil, dev, nil)
	app := func(lg *Log, ts int64, key string) {
		mustAppend(t, lg, Record{Type: RecUpsert, Key: []byte(key), TS: ts})
	}
	replayed := func(lg *Log) string { return replayedKeys(t, lg) }
	held := func() string {
		segs, err := dev.LoadWAL()
		if err != nil {
			t.Fatal(err)
		}
		var seqs []uint64
		for _, s := range segs {
			seqs = append(seqs, s.Seq)
		}
		return fmt.Sprint(seqs)
	}
	app(l, 5, "a") // segment 1
	cut2, err := l.Rotate()
	if err != nil || cut2 != 2 {
		t.Fatalf("first rotation = %d, %v; want segment 2", cut2, err)
	}
	app(l, 15, "b") // segment 2
	cut3, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	app(l, 25, "c") // segment 3, live
	full := l.Bytes()

	l.DropBefore(cut2) // the batch frozen at the first rotation is durable
	if got := replayed(l); got != "b,c" {
		t.Fatalf("after the first cut the log replays %q, want b,c", got)
	}
	if l.Len() != 2 || l.Bytes() >= full {
		t.Fatalf("after the first cut: %d records, %d of %d bytes", l.Len(), l.Bytes(), full)
	}
	l.DropBefore(cut3 + 10) // a cut past the end still spares the live segment
	if got := replayed(l); got != "c" {
		t.Fatalf("after the second cut the log replays %q, want c", got)
	}
	if got := held(); got != "[3]" {
		t.Fatalf("device holds segments %s, want only the live one, [3]", got)
	}

	// Reopen over the surviving segment with a torn tail behind it.
	torn := []byte{0, 0, 1, 200, 77}
	if err := dev.Disk.AppendWAL(torn); err != nil {
		t.Fatal(err)
	}
	before, err := dev.LoadWAL()
	if err != nil {
		t.Fatal(err)
	}
	re := openOn(t, nil, dev, nil)
	app(re, 35, "d")
	if got := replayed(re); got != "c,d" {
		t.Fatalf("the reopened log replays %q, want c,d", got)
	}
	after, err := dev.LoadWAL()
	if err != nil {
		t.Fatal(err)
	}
	if held() != "[3 4]" || !bytes.Equal(after[0].Data, before[0].Data) || len(after[1].Data) == 0 {
		t.Fatalf("reopen appended to the recovered segment instead of a fresh one")
	}
	if lsn := re.MaxLSN(); lsn != l.MaxLSN()+1 {
		t.Fatalf("LSNs do not continue across the reopen: %d after %d", lsn, l.MaxLSN())
	}
}

// recordsEqual compares records with the decoder's nil/empty normalization
// (zero-length byte fields decode as nil).
func recordsEqual(a, b Record) bool {
	return a.LSN == b.LSN && a.Type == b.Type && a.TS == b.TS && a.UpdateBit == b.UpdateBit &&
		bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value)
}
