package memtable

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/kv"
)

// mallocsPer is testing.AllocsPerRun without the rounding down to a whole
// number, which would hide a slab's amortised share.
func mallocsPer(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestPutAllocations guards the slabs: a new key costs its value's
// allocation plus a share of a slab, a key-only entry (a secondary or
// primary-key index entry) only the share, and an overwrite exactly the
// new value.
func TestPutAllocations(t *testing.T) {
	const runs = 4 * nodeSlab // whole slabs, so their cost is in the average
	value := make([]byte, 100)
	var key [8]byte
	next := uint64(0)
	put := func(m *Table, v []byte) func() {
		return func() {
			binary.BigEndian.PutUint64(key[:], next*2654435761) // scattered, not ascending
			next++
			m.Put(kv.Entry{Key: key[:], Value: v, TS: int64(next)})
		}
	}
	if got := mallocsPer(runs, put(New(1), value)); got < 1 || got > 1.1 {
		t.Errorf("Put of a new key with a value: %v allocations, want 1 to 1.1", got)
	}
	if got := mallocsPer(runs, put(New(1), nil)); got > 0.1 {
		t.Errorf("Put of a new key-only entry: %v allocations, want under 0.1", got)
	}
	m := New(1)
	m.Put(kv.Entry{Key: []byte("k"), Value: value})
	overwrite := func() { m.Put(kv.Entry{Key: []byte("k"), Value: value, TS: 2}) }
	if got := testing.AllocsPerRun(runs, overwrite); got != 1 {
		t.Errorf("overwrite: %v allocations, want exactly 1 (the value)", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after overwrites, want 1", m.Len())
	}
}

// TestReadersAcrossSlabBoundaries runs Get and Iterator against a writer
// that fills several node, tower and key slabs: a reader must never see a
// node whose key or value is not the one put for it, whichever slab the
// node, its tower and its key landed in. Run it under -race.
func TestReadersAcrossSlabBoundaries(t *testing.T) {
	const n = 5*nodeSlab + 7 // 16-byte keys: the first 4 KiB key chunk fills at 256
	keyOf := func(i uint64) []byte {
		k := make([]byte, 16)
		binary.BigEndian.PutUint64(k, i*2654435761%n) // a permutation of 0..n-1: the multiplier is prime
		binary.BigEndian.PutUint64(k[8:], ^i)
		return k[:8+i%9] // lengths 8..16, so key chunks fill at uneven points
	}
	m := New(3)
	var published atomic.Uint64 // keys 0..published-1 are in the table
	var wg sync.WaitGroup
	for r := uint64(0); r < 3; r++ {
		wg.Add(1)
		go func(r uint64) {
			defer wg.Done()
			for i := r; ; i += 3 {
				done := published.Load()
				if done == n {
					return
				}
				if done == 0 {
					continue
				}
				k := keyOf(i % done)
				if e, ok := m.Get(k); !ok || !bytes.Equal(e.Key, k) || !bytes.Equal(e.Value, k) {
					t.Errorf("Get(%x) = %v, %v with %d keys published", k, e, ok, done)
					return
				}
				it := m.NewIterator(k, nil)
				var prev []byte
				for j := 0; j < 8; j++ {
					e, ok := it.Next()
					if !ok {
						break
					}
					// (The first entry may sort below k: the iterator parks on
					// k's predecessor and a key put since lands after it.)
					if !bytes.Equal(e.Key, e.Value) || (prev != nil && bytes.Compare(prev, e.Key) >= 0) {
						t.Errorf("iterator from %x: entry %d is %v after %x", k, j, e, prev)
						return
					}
					prev = e.Key
				}
			}
		}(r)
	}
	for i := uint64(0); i < n; i++ {
		k := keyOf(i)
		m.Put(kv.Entry{Key: k, Value: k, TS: int64(i)})
		if i%5 == 0 { // overwrites keep the node and its key
			m.Put(kv.Entry{Key: k, Value: k, TS: int64(i)})
		}
		published.Store(i + 1)
	}
	wg.Wait()
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
}
