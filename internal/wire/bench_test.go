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

// servedAnswer is a secondary query's answer as the served query workload
// gets it: n records of 8-byte primary keys and 464- to 564-byte records,
// about 40 KB for 75.
func servedAnswer(n int) Response {
	r := Response{ID: 1, Kind: KindQuery, Records: make([]Record, n)}
	for i := range r.Records {
		r.Records[i] = Record{
			PK:    binary.BigEndian.AppendUint64(nil, uint64(i)*0x9E3779B97F4A7C15),
			Value: make([]byte, 464+i*100/n),
		}
	}
	return r
}

// BenchmarkDecodeResponse decodes the served answers the client reads — a
// 514-byte GET value, a 64-flag batch report and a 75-record query answer —
// each through DecodeResponse, one exact-size backing per answer, and
// through a connection's ResponseDecoder, which carves the first two from
// its chunks. Run it with -benchmem.
func BenchmarkDecodeResponse(b *testing.B) {
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		{"get-514B", AppendResponse(nil, Response{ID: 1, Kind: KindValue, Found: true, Value: make([]byte, 514)})},
		{"batch-64", AppendResponse(nil, Response{ID: 1, Kind: KindBatch, AppliedBatch: make([]bool, 64)})},
		{"query-75", AppendResponse(nil, servedAnswer(75))},
	} {
		var d ResponseDecoder
		for _, dec := range []struct {
			name   string
			decode func([]byte) (Response, error)
		}{{"exact", DecodeResponse}, {"decoder", d.Decode}} {
			b.Run(c.name+"/"+dec.name, func(b *testing.B) {
				b.SetBytes(int64(len(c.frame)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := dec.decode(c.frame); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
