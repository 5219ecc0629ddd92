package memtable

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/kv"
)

func liveHeap() int {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int(ms.HeapAlloc)
}

// carved returns the chunk bytes m has carved: every chunk but what the
// open one has left.
func carved(m *Table) int {
	total := m.used - len(m.chunks[m.open])
	for _, c := range m.chunks {
		total += len(c)
	}
	return total
}

// TestHeapTracksBudget fills tables the way a served store fills its
// memtables — to the 4 MiB budget, with the entries of the served schema's
// primary index, secondary index and primary key index, with and without
// overwrites, and with values too large to share a chunk — and bounds the
// heap they hold against the chunk bytes they carve, which is all a table
// should hold, and against Bytes(), which the budget charges.
func TestHeapTracksBudget(t *testing.T) {
	for _, s := range shapes {
		before := liveHeap()
		m := New(1)
		fill(m, s, budget)
		heap := float64(liveHeap() - before)
		perCarved, perAccounted := heap/float64(carved(m)), heap/float64(m.Bytes())
		t.Logf("%s: heap %.0f B, %.3f× the chunk bytes carved, %.3f× Bytes()", s.name, heap, perCarved, perAccounted)
		if perCarved > 1.1 {
			t.Errorf("%s: heap is %.3f× the chunk bytes carved, want at most 1.1", s.name, perCarved)
		}
		if s.name != "primary" && perAccounted > 2.0 {
			t.Errorf("%s: heap is %.3f× Bytes(), want at most 2.0", s.name, perAccounted)
		}
		runtime.KeepAlive(m)
	}

	for _, overwrites := range []bool{false, true} {
		got := servedHeap(overwrites)
		t.Logf("served schema, half overwrites %v: heap %.3f× Bytes()", overwrites, got)
		if got > 1.15 {
			t.Errorf("served schema, half overwrites %v: heap is %.3f× Bytes(), want at most 1.15", overwrites, got)
		}
	}

	// Values too large to share a chunk, each key's first and then its
	// overwrite's: every one is a chunk of its own, which the heap rounds
	// up to its size class — by about 15 % for an 8 193-byte value and 25 % for a
	// 32 769-byte one, which Bytes() charges too.
	big := make([]byte, 4*maxInline+1)
	for _, c := range []struct {
		name string
		size func(i uint64) int
	}{
		{"values over maxInline", func(i uint64) int { return maxInline + 1 + int(i*7919%maxInline) }},
		{"8 193-byte values", func(uint64) int { return 8193 }},
		{"32 769-byte values", func(uint64) int { return 32769 }},
	} {
		before := liveHeap()
		m := New(1)
		var key [8]byte
		for i := uint64(0); m.Bytes() < budget; i++ {
			binary.BigEndian.PutUint64(key[:], i/2*0x9E3779B97F4A7C15)
			m.Put(kv.Entry{Key: key[:], Value: big[:c.size(i)], TS: int64(i)})
		}
		heap := float64(liveHeap() - before)
		t.Logf("%s: heap %.3f× Bytes(), %d chunks", c.name, heap/float64(m.Bytes()), len(m.chunks))
		if heap/float64(m.Bytes()) > 1.15 {
			t.Errorf("%s: heap is %.3f× Bytes(), want at most 1.15", c.name, heap/float64(m.Bytes()))
		}
		runtime.KeepAlive(m)
	}
}

// servedHeap puts one entry of each of the served schema's shapes per
// record until the three tables hold the budget, and returns the heap they
// hold per accounted byte. With overwrites, every other record updates a
// past key, as a Validation store writes it: its primary and primary key
// index entries overwrite that key's, and its secondary entry is new.
func servedHeap(overwrites bool) float64 {
	before := liveHeap()
	var tables [3]*Table
	for j := range tables {
		tables[j] = New(int64(j))
	}
	buf := make([]byte, 0, 32)
	accounted, keys := 0, uint64(0)
	for i := uint64(0); accounted < budget; i++ {
		k := keys
		if overwrites && i%2 == 1 {
			k = i * 7919 % keys
		} else {
			keys++
		}
		accounted = 0
		for j, s := range shapes {
			var e kv.Entry
			if s.name == "secondary" {
				buf, e = s.entry(buf, i)
			} else {
				buf, e = s.entry(buf, k)
			}
			e.TS = int64(i)
			tables[j].Put(e)
			accounted += tables[j].Bytes()
		}
	}
	heap := float64(liveHeap() - before)
	runtime.KeepAlive(tables)
	return heap / float64(accounted)
}
