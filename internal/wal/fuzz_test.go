package wal

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder: it must
// never panic, and any error it reports must be (or wrap) ErrCorruptRecord
// so recovery can distinguish a torn tail from a programming bug. When a
// record does decode, re-encoding it must round-trip.
func FuzzDecodeRecord(f *testing.F) {
	seed := []Record{
		{},
		{TxnID: 7, Type: RecCommit},
		{LSN: 3, TxnID: 9, Type: RecUpsert, Index: "dataset", Key: []byte("pk-1"),
			Value: []byte("record-bytes"), TS: 42, UpdateBit: true,
			PrevValue: []byte("old"), HadPrev: true},
		{LSN: -1, TxnID: -5, Type: RecDelete, Key: []byte{0, 1, 2}, TS: -9},
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
// checks that (a) it decodes back identically and (b) every strict prefix
// of the encoding — a corrupt-tail truncation — fails with ErrCorruptRecord
// rather than panicking or mis-decoding.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(int64(1), int64(2), byte(RecUpsert), []byte("k"), []byte("v"), []byte("p"), int64(3), true, true)
	f.Add(int64(-1), int64(0), byte(RecCommit), []byte(nil), []byte(nil), []byte(nil), int64(-7), false, false)
	f.Add(int64(1<<62), int64(-1<<62), byte(200), bytes.Repeat([]byte{0xff}, 300), []byte{}, []byte{0}, int64(0), true, false)
	f.Fuzz(func(t *testing.T, lsn, txn int64, typ byte, key, val, prev []byte, ts int64, update, hadPrev bool) {
		r := Record{
			LSN: lsn, TxnID: txn, Type: RecordType(typ), Index: "idx",
			Key: key, Value: val, PrevValue: prev, TS: ts,
			UpdateBit: update, HadPrev: hadPrev,
		}
		enc := AppendRecord(nil, r)
		got, rest, err := DecodeRecord(enc)
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

// TestCompactImage pins the reopen/shutdown compaction contract: data
// records survive only when their transaction committed AND their
// timestamp is newer than the durable-component watermark; everything else
// — covered records, uncommitted leftovers, aborted transactions and all
// bare markers — is dropped.
func TestCompactImage(t *testing.T) {
	l := New(nil)
	app := func(txn, ts int64, typ RecordType, key string) {
		l.Append(Record{TxnID: txn, Type: typ, Key: []byte(key), TS: ts})
	}
	app(1, 5, RecUpsert, "covered") // covered by components
	l.Commit(1)
	app(2, 15, RecUpsert, "live") // durable commit past the watermark
	l.Commit(2)
	app(3, 20, RecUpsert, "uncommitted") // crash before commit: dead
	app(4, 25, RecDelete, "aborted")
	l.Append(Record{TxnID: 4, Type: RecAbort})

	img := l.CompactImage(10)
	kept, consumed := OpenPersisted(nil, img, nil)
	if consumed != len(img) {
		t.Fatalf("compacted image decodes for %d of %d bytes", consumed, len(img))
	}
	var keys []string
	types := map[RecordType]int{}
	if err := kept.Replay(0, func(r Record) error {
		if r.TxnID != 2 {
			t.Errorf("replayed a record of txn %d; only txn 2 is live", r.TxnID)
		}
		keys = append(keys, string(r.Key))
		types[r.Type]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "live" {
		t.Fatalf("replayed records = %q, want [live]", keys)
	}
	if kept.Len() != 2 { // the live data record + its commit
		t.Fatalf("compacted image holds %d records, want 2", kept.Len())
	}
	if types[RecUpsert] != 1 {
		t.Fatalf("replay of compacted image applied %d upserts, want 1", types[RecUpsert])
	}
	if got := kept.MaxTxnID(); got != 2 {
		t.Fatalf("MaxTxnID of compacted image = %d, want 2", got)
	}
}

// recordsEqual compares records with the decoder's nil/empty normalization
// (zero-length byte fields decode as nil).
func recordsEqual(a, b Record) bool {
	return a.LSN == b.LSN && a.TxnID == b.TxnID && a.Type == b.Type &&
		a.Index == b.Index && a.TS == b.TS &&
		a.UpdateBit == b.UpdateBit && a.HadPrev == b.HadPrev &&
		bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value) &&
		bytes.Equal(a.PrevValue, b.PrevValue)
}
