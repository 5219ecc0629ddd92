package memtable

import (
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

// carved returns the chunk bytes m's nodes take, the head's included.
func carved(m *Table) int {
	size := func(n []byte) int {
		_, end := keySpan(n)
		if ref := le.Uint32(n[offValue:]); ref&slotBit == 0 {
			end += int(ref)
		}
		return (end + align - 1) &^ (align - 1)
	}
	total := size(m.at(0))
	for x := next(m.at(0), 0); x != 0; x = next(m.at(x), 0) {
		total += size(m.at(x))
	}
	return total
}

// TestHeapTracksBudget fills tables the way a served store fills its
// memtables — to the 4 MiB budget, with the entries of the served schema's
// primary index, secondary index and primary key index — and bounds the
// heap they hold against the chunk bytes their nodes carve, which is all a
// table should hold, and against Bytes(), which the budget charges.
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

	// The three together, one entry of each per record, as the served
	// schema writes them.
	before := liveHeap()
	var tables [3]*Table
	for j := range tables {
		tables[j] = New(int64(j))
	}
	buf := make([]byte, 0, 32)
	accounted := 0
	for i := uint64(0); accounted < budget; i++ {
		accounted = 0
		for j, s := range shapes {
			var e kv.Entry
			buf, e = s.entry(buf, i)
			tables[j].Put(e)
			accounted += tables[j].Bytes()
		}
	}
	heap := float64(liveHeap() - before)
	t.Logf("served schema: heap %.0f B, %.3f× Bytes()", heap, heap/float64(accounted))
	if heap/float64(accounted) > 1.15 {
		t.Errorf("served schema: heap is %.3f× Bytes(), want at most 1.15", heap/float64(accounted))
	}
	runtime.KeepAlive(tables)
}
