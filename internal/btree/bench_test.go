package btree

import (
	"testing"

	"repro/internal/kv"
)

func benchTree(b *testing.B, n int) *Reader {
	b.Helper()
	store := newTestStore(b, 32<<10)
	builder := NewBuilder(store)
	payload := kv.AppendPayload(nil, kv.Entry{Value: make([]byte, 100), TS: 1})
	for i := 0; i < n; i++ {
		if err := builder.Add(kv.EncodeUint64(uint64(i)), payload); err != nil {
			b.Fatal(err)
		}
	}
	r, err := builder.Finish()
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func BenchmarkBulkLoad(b *testing.B) {
	payload := kv.AppendPayload(nil, kv.Entry{Value: make([]byte, 100), TS: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		store := newTestStore(b, 32<<10)
		builder := NewBuilder(store)
		for j := 0; j < 10000; j++ {
			builder.Add(kv.EncodeUint64(uint64(j)), payload)
		}
		if _, err := builder.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	r := benchTree(b, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, found, err := r.Get(kv.EncodeUint64(uint64(i*7919)%100000), nil)
		if err != nil || !found {
			b.Fatal(err, found)
		}
	}
}

func BenchmarkStatefulCursorSequential(b *testing.B) {
	r := benchTree(b, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	cur := r.NewLookupCursor(true)
	for i := 0; i < b.N; i++ {
		if _, _, found, err := cur.Lookup(kv.EncodeUint64(uint64(i % 100000))); err != nil || !found {
			b.Fatal(err, found)
		}
	}
}

func BenchmarkStatelessCursorSequential(b *testing.B) {
	r := benchTree(b, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	cur := r.NewLookupCursor(false)
	for i := 0; i < b.N; i++ {
		if _, _, found, err := cur.Lookup(kv.EncodeUint64(uint64(i % 100000))); err != nil || !found {
			b.Fatal(err, found)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	r := benchTree(b, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := r.NewScan(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, _, ok, err := s.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
}
