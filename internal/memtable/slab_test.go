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

// TestPutAllocations guards the slabs: a new key, with a value or without
// one (a secondary or primary-key index entry), costs only a share of a
// slab, and an overwrite exactly the new value.
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
	if got := mallocsPer(runs, put(New(1), value)); got > 0.1 {
		t.Errorf("Put of a new key with a value: %v allocations, want under 0.1", got)
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

// TestHotKeyPinsOneValue overwrites one key in place many times amid a
// trickle of new keys. The table's first value for the hot key stays in its
// slab, but every later value is an allocation of its own that the next
// overwrite lets go. Were the overwrites carved from the slab too, each new
// key would land in a chunk full of superseded values and keep it alive, and
// the heap would grow by about the bytes written; as it is, it grows by
// less than one slab chunk plus the one live value — the new keys' nodes,
// towers and key bytes included.
func TestHotKeyPinsOneValue(t *testing.T) {
	const (
		overwrites = 100_000
		valueSize  = 1 << 10
		newKeyEach = 256       // overwrites per new key-only entry
		maxChunk   = 256 << 10 // kv.Arena's largest chunk
	)
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	value := make([]byte, valueSize)
	hot := []byte("hot")
	var key [8]byte
	m := New(1)
	m.Put(kv.Entry{Key: hot, Value: value, TS: 0})
	before := heap()
	for i := 1; i <= overwrites; i++ {
		value[0] = byte(i)
		m.Put(kv.Entry{Key: hot, Value: value, TS: int64(i)})
		if i%newKeyEach == 0 {
			binary.BigEndian.PutUint64(key[:], uint64(i))
			m.Put(kv.Entry{Key: key[:], TS: int64(i)})
		}
	}
	after := heap()
	if e, ok := m.Get(hot); !ok || e.TS != overwrites || !bytes.Equal(e.Value, value) {
		t.Fatalf("Get(hot) = %v, %v after %d overwrites", e, ok, overwrites)
	}
	if grew := int64(after) - int64(before); grew >= maxChunk+valueSize {
		t.Fatalf("%d overwrites of one key grew the heap by %d bytes, want under %d (one chunk plus one value)",
			overwrites, grew, maxChunk+valueSize)
	}
	runtime.KeepAlive(m)
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
