package memtable

import (
	"encoding/binary"
	"testing"

	"repro/internal/kv"
)

// budget is the served store's memory budget per partition; the
// benchmarks and the heap test fill tables to it, as a flush would find
// them.
const budget = 4 << 20

// shape builds the i-th entry of one of the served schema's three
// memtables into buf, which it may grow and return.
type shape struct {
	name  string
	entry func(buf []byte, i uint64) ([]byte, kv.Entry)
}

// record is the largest value the primary shape puts: the served
// workload's records are 462 to 561 bytes.
var record = make([]byte, 561)

// scatter maps i to a distinct 8-byte primary key; keys arrive in no order.
func scatter(buf []byte, i uint64) []byte {
	return binary.BigEndian.AppendUint64(buf[:0], i*0x9E3779B97F4A7C15)
}

var shapes = []shape{
	{"primary", func(buf []byte, i uint64) ([]byte, kv.Entry) {
		buf = scatter(buf, i)
		return buf, kv.Entry{Key: buf, Value: record[:462+i%100], TS: int64(i)}
	}},
	{"secondary", func(buf []byte, i uint64) ([]byte, kv.Entry) {
		var user [4]byte
		var pk [8]byte
		binary.BigEndian.PutUint32(user[:], uint32(i*7919%30_000))
		buf = kv.AppendComposeKey(buf[:0], user[:], scatter(pk[:0], i))
		return buf, kv.Entry{Key: buf, TS: int64(i)}
	}},
	{"pk", func(buf []byte, i uint64) ([]byte, kv.Entry) {
		buf = scatter(buf, i)
		return buf, kv.Entry{Key: buf, TS: int64(i)}
	}},
}

// fill puts entries of shape s into m, from index 0, until m holds n
// accounted bytes, and returns how many it put.
func fill(m *Table, s shape, n int) uint64 {
	buf := make([]byte, 0, 32)
	var i uint64
	for ; m.Bytes() < n; i++ {
		var e kv.Entry
		buf, e = s.entry(buf, i)
		m.Put(e)
	}
	return i
}

// BenchmarkPut puts new keys into a table, starting a fresh one each time
// the last reaches the served budget, as a flush does.
func BenchmarkPut(b *testing.B) {
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			m := New(1)
			buf := make([]byte, 0, 32)
			for i := 0; i < b.N; i++ {
				if m.Bytes() >= budget {
					m = New(int64(i))
				}
				var e kv.Entry
				buf, e = s.entry(buf, uint64(i))
				m.Put(e)
			}
		})
	}
}

// BenchmarkPutFirstOverwrite overwrites each key of a primary table filled
// to the served budget once, in the order they were put; after the last it
// fills a fresh table, untimed. (The index shapes hold no value, so their
// overwrites carve nothing.) Run it with -benchmem: an overwrite carves
// its value record from the open chunk, so allocs/op is a chunk's share.
func BenchmarkPutFirstOverwrite(b *testing.B) {
	s := shapes[0]
	m := New(1)
	n := fill(m, s, budget)
	buf := make([]byte, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i, j := 0, uint64(0); i < b.N; i, j = i+1, j+1 {
		if j == n {
			b.StopTimer()
			m, j = New(int64(i)), 0
			fill(m, s, budget)
			b.StartTimer()
		}
		var e kv.Entry
		buf, e = s.entry(buf, j)
		e.TS += int64(n)
		m.Put(e)
	}
}

// BenchmarkGet looks up the keys of a table filled to the served budget.
func BenchmarkGet(b *testing.B) {
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			m := New(1)
			n := fill(m, s, budget)
			buf := make([]byte, 0, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var e kv.Entry
				buf, e = s.entry(buf, uint64(i)%n)
				if _, ok := m.Get(e.Key); !ok {
					b.Fatalf("Get(%x) missed", e.Key)
				}
			}
		})
	}
}

// BenchmarkIterate walks a table filled to the served budget from end to
// end, as a flush does; one op is one entry.
func BenchmarkIterate(b *testing.B) {
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			m := New(1)
			fill(m, s, budget)
			b.ReportAllocs()
			b.ResetTimer()
			it := m.NewIterator(nil, nil)
			for i := 0; i < b.N; i++ {
				if _, ok := it.Next(); !ok {
					it = m.NewIterator(nil, nil)
				}
			}
		})
	}
}
