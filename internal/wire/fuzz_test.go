package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzDecodeRequest feeds arbitrary bytes to the request decoder: it must
// never panic, and any error must wrap ErrCorruptFrame so the server can
// tell a broken client from an internal bug. When a payload does decode,
// re-encoding and re-decoding it must reproduce the same request (varints
// accept non-minimal spellings, so the comparison is semantic, not
// byte-exact — the same contract as the WAL fuzzers).
func FuzzDecodeRequest(f *testing.F) {
	seed := []Request{
		{ID: 1, Op: OpPing},
		{ID: 1 << 60, Op: OpGet, Key: []byte("pk")},
		{ID: 3, Op: OpApplyBatch, Muts: []Mutation{
			{Op: MutUpsert, PK: []byte("a"), Record: []byte("r")},
			{Op: MutDelete, PK: []byte{0}},
		}},
		{ID: 4, Op: OpSecondaryQuery, Index: "user", Lo: []byte{1}, Hi: []byte{2},
			Validation: 3, IndexOnly: true, Limit: -1},
		{ID: 5, Op: OpFilterScan, FilterLo: -1 << 62, FilterHi: 1 << 62},
	}
	for _, r := range seed {
		f.Add(AppendRequest(nil, r))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1})
	// A request followed by a length-prefixed string: the retired tenant
	// tag, now trailing garbage.
	f.Add(append(AppendRequest(nil, Request{ID: 6, Op: OpGet, Key: []byte("pk")}), 0x02, 't', '1'))
	// stale fills a reused list with mutations no decode of a fuzz input
	// produces, to show that decoding into it leaves none behind.
	stale := make([]Mutation, 0, 8)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequestInPlace(data)
		stale = stale[:cap(stale)]
		for i := range stale {
			stale[i] = Mutation{Op: MutDelete, PK: []byte("stale"), Record: []byte("stale")}
		}
		reused, reusedErr := DecodeRequestInto(data, stale)
		if (err == nil) != (reusedErr == nil) || (err != nil && err.Error() != reusedErr.Error()) {
			t.Fatalf("fresh decode error %v, into a reused list %v", err, reusedErr)
		}
		if !reflect.DeepEqual(reused, req) {
			t.Fatalf("decode into a reused list:\n got  %+v\n want %+v", reused, req)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("decode error %v does not wrap ErrCorruptFrame", err)
			}
			return
		}
		enc := AppendRequest(nil, req)
		again, err := DecodeRequestInPlace(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded request failed: %v", err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip mismatch:\n got  %+v\n want %+v", again, req)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for the response decoder.
func FuzzDecodeResponse(f *testing.F) {
	seed := []Response{
		{ID: 1, Kind: KindOK},
		{ID: 2, Kind: KindValue, Found: true, Value: []byte("rec")},
		{ID: 3, Kind: KindBatch, AppliedBatch: []bool{true, false}},
		{ID: 4, Kind: KindQuery, Records: []Record{{PK: []byte("p"), Value: []byte("v")}},
			Keys: [][]byte{[]byte("k")}},
		{ID: 5, Kind: KindStats, Stats: []byte(`{"Ingested":9}`)},
		ErrorResponse(6, CodeShuttingDown, "drain"),
	}
	for _, r := range seed {
		f.Add(AppendResponse(nil, r))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 200})
	// One decoder sees every input, corrupt ones included, as a connection's
	// reader would: it must answer as DecodeResponse does, and no carve may
	// disturb the answer it decoded before.
	var (
		dec          ResponseDecoder
		prev         Response
		prevEncoding []byte
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponse(data)
		carved, cerr := dec.Decode(data)
		if (err == nil) != (cerr == nil) || !reflect.DeepEqual(carved, resp) {
			t.Fatalf("decoder answered %+v, %v; DecodeResponse %+v, %v", carved, cerr, resp, err)
		}
		if prevEncoding != nil && !bytes.Equal(AppendResponse(nil, prev), prevEncoding) {
			t.Fatalf("a later decode changed the answer before it:\n got  %+v", prev)
		}
		if cerr == nil {
			prev, prevEncoding = carved, AppendResponse(nil, carved)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("decode error %v does not wrap ErrCorruptFrame", err)
			}
			return
		}
		enc := AppendResponse(nil, resp)
		again, err := DecodeResponse(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded response failed: %v", err)
		}
		if !reflect.DeepEqual(again, resp) {
			t.Fatalf("round trip mismatch:\n got  %+v\n want %+v", again, resp)
		}
	})
}

// FuzzRequestRoundTrip builds a request from fuzzed fields, encodes it,
// and checks that it decodes back identically and that every strict prefix
// of the encoding — a truncated frame — fails with ErrCorruptFrame rather
// than panicking or mis-decoding.
func FuzzRequestRoundTrip(f *testing.F) {
	f.Add(uint64(1), byte(OpUpsert), []byte("k"), []byte("v"), "idx", []byte("lo"), []byte("hi"),
		int64(-3), int64(9), byte(1), true, int64(10), []byte("mpk"))
	f.Add(uint64(0), byte(OpPing), []byte(nil), []byte(nil), "", []byte(nil), []byte(nil),
		int64(0), int64(0), byte(0), false, int64(0), []byte(nil))
	f.Fuzz(func(t *testing.T, id uint64, op byte, key, value []byte, index string, lo, hi []byte,
		flo, fhi int64, validation byte, indexOnly bool, limit int64, mutPK []byte) {
		r := Request{
			ID: id, Op: Op(op%byte(opMax-1)) + 1, // always a valid op
			Key: key, Value: value, Index: index, Lo: lo, Hi: hi,
			FilterLo: flo, FilterHi: fhi,
			Validation: validation, IndexOnly: indexOnly, Limit: limit,
			Muts: []Mutation{{Op: MutOp(op % byte(mutMax)), PK: mutPK, Record: value}},
		}
		enc := AppendRequest(nil, r)
		got, err := DecodeRequestInPlace(enc)
		if err != nil {
			t.Fatalf("decode of valid encoding failed: %v", err)
		}
		// The decoder normalizes zero-length byte fields to nil.
		want := r
		norm := func(b []byte) []byte {
			if len(b) == 0 {
				return nil
			}
			return b
		}
		want.Key, want.Value = norm(want.Key), norm(want.Value)
		want.Lo, want.Hi = norm(want.Lo), norm(want.Hi)
		want.Muts[0].PK, want.Muts[0].Record = norm(want.Muts[0].PK), norm(want.Muts[0].Record)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got  %+v\n want %+v", got, want)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodeRequestInPlace(enc[:cut]); !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("truncation at %d/%d bytes: err = %v, want ErrCorruptFrame", cut, len(enc), err)
			}
		}
	})
}
