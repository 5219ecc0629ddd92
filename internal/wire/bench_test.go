package wire

import (
	"encoding/binary"
	"testing"
)

// servedBatch is an APPLY_BATCH as the served ingest workload sends it: 64
// upserts of 8-byte primary keys and 464- to 564-byte records.
func servedBatch() Request {
	muts := make([]Mutation, 64)
	for i := range muts {
		muts[i] = Mutation{
			Op:     MutUpsert,
			PK:     binary.BigEndian.AppendUint64(nil, uint64(i)*0x9E3779B97F4A7C15),
			Record: make([]byte, 464+i*100/64),
		}
	}
	return Request{ID: 1, Op: OpApplyBatch, Muts: muts}
}

// BenchmarkAppendRequestBatch encodes a served batch into a reused buffer,
// as the client does. Run it with -benchmem.
func BenchmarkAppendRequestBatch(b *testing.B) {
	req := servedBatch()
	buf := AppendRequest(nil, req)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendRequest(buf[:0], req)
	}
}

// BenchmarkDecodeRequestBatch decodes a served batch in place into a
// reused mutation list, as the server does. Run it with -benchmem.
func BenchmarkDecodeRequestBatch(b *testing.B) {
	frame := AppendRequest(nil, servedBatch())
	var muts []Mutation
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := DecodeRequestInto(frame, muts)
		if err != nil {
			b.Fatal(err)
		}
		muts = r.Muts
	}
}
