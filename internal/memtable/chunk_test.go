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
// number, which would hide a chunk's amortised share.
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

// TestPutAllocations guards the chunks: a new key, with a value or without
// one (a secondary or primary-key index entry), and a key's first
// overwrite cost only a share of a chunk, and every later overwrite of a
// key exactly the new value.
func TestPutAllocations(t *testing.T) {
	const runs = 4 * chunkSize / 64 // several whole chunks, so their cost is in the average
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
	// The same scattered keys again: each is a key's first overwrite.
	m := New(1)
	next = 0
	for i := 0; i <= runs; i++ { // mallocsPer puts runs+1 keys
		put(m, value)()
	}
	next = 0
	if got := mallocsPer(runs, put(m, value)); got > 0.1 {
		t.Errorf("first overwrite of a key: %v allocations, want under 0.1", got)
	}
	m = New(1)
	m.Put(kv.Entry{Key: []byte("k"), Value: value})
	overwrite := func() { m.Put(kv.Entry{Key: []byte("k"), Value: value, TS: 2}) }
	if got := testing.AllocsPerRun(runs, overwrite); got != 1 {
		t.Errorf("repeat overwrite: %v allocations, want exactly 1 (the value)", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after overwrites, want 1", m.Len())
	}
}

// TestHotKeyPinsOneValue overwrites one key in place many times amid a
// trickle of new keys. The hot key's first value and its first overwrite's
// stay in their chunks, but every later value is an allocation of its own,
// in the key's slot, that the next overwrite lets go, so the key pins at
// most two superseded values. Were every overwrite carved from the chunks,
// each new key would land in a chunk full of superseded values and keep it
// alive, and the heap would grow by about the bytes written; as it is, it
// grows by less than one chunk plus the one live value — the new keys'
// nodes and the carved first overwrite included.
func TestHotKeyPinsOneValue(t *testing.T) {
	const (
		overwrites = 100_000
		valueSize  = 1 << 10
		newKeyEach = 256 // overwrites per new key-only entry
	)
	value := make([]byte, valueSize)
	hot := []byte("hot")
	var key [8]byte
	m := New(1)
	m.Put(kv.Entry{Key: hot, Value: value, TS: 0})
	before := liveHeap()
	for i := 1; i <= overwrites; i++ {
		value[0] = byte(i)
		m.Put(kv.Entry{Key: hot, Value: value, TS: int64(i)})
		if i%newKeyEach == 0 {
			binary.BigEndian.PutUint64(key[:], uint64(i))
			m.Put(kv.Entry{Key: key[:], TS: int64(i)})
		}
	}
	after := liveHeap()
	if e, ok := m.Get(hot); !ok || e.TS != overwrites || !bytes.Equal(e.Value, value) {
		t.Fatalf("Get(hot) = %v, %v after %d overwrites", e, ok, overwrites)
	}
	if grew := after - before; grew >= chunkSize+valueSize {
		t.Fatalf("%d overwrites of one key grew the heap by %d bytes, want under %d (one chunk plus one value)",
			overwrites, grew, chunkSize+valueSize)
	}
	runtime.KeepAlive(m)
}

// TestOverwritesKeepReadersValues: a value a reader took before a key's
// first and second overwrites still reads its own bytes after them, for a
// first value inline behind the key and for one carved for the first
// overwrite — a new value never goes where an old one was.
func TestOverwritesKeepReadersValues(t *testing.T) {
	m := New(1)
	key := []byte("k")
	var held [][]byte
	for i := byte(0); i < 3; i++ {
		m.Put(kv.Entry{Key: key, Value: bytes.Repeat([]byte{'a' + i}, 40), TS: int64(i)})
		e, ok := m.Get(key)
		if !ok {
			t.Fatalf("Get after put %d missed", i)
		}
		held = append(held, e.Value)
		// The next put must not land behind the value just read.
		m.Put(kv.Entry{Key: []byte{'k', i}, Value: bytes.Repeat([]byte{'z'}, 40), TS: int64(i)})
	}
	for i, v := range held {
		if want := bytes.Repeat([]byte{'a' + byte(i)}, 40); !bytes.Equal(v, want) {
			t.Errorf("value read after put %d = %q, want %q", i, v, want)
		}
	}
}

// TestReadersAcrossChunkBoundaries runs Get and Iterator against a writer
// that fills chunk after chunk with nodes of uneven sizes, some with their
// value in a slot: a reader must never see a node whose key or value is
// not the one put for it, wherever the node landed. A node never straddles
// a chunk's end — one that does not fit opens the next chunk — and the
// writer checks that, among the nodes that opened one, the end of the
// chunk before would have cut each part: the header, the tower, the key
// and the value. Run it under -race.
func TestReadersAcrossChunkBoundaries(t *testing.T) {
	const n = 50_000
	keyOf := func(i uint64) []byte {
		k := make([]byte, 40)
		binary.BigEndian.PutUint64(k, i*2654435761%n) // a permutation of 0..n-1: the multiplier is prime
		binary.BigEndian.PutUint64(k[8:], ^i)
		return k[:8+i%33] // lengths 8..40
	}
	valueOf := func(k []byte) []byte {
		l := int(binary.BigEndian.Uint16(k[6:]) % 160)
		if k[7]%101 == 0 {
			l = maxInline + 1 // in a slot
		}
		return bytes.Repeat(k, l/len(k)+1)[:l]
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
				if e, ok := m.Get(k); !ok || !bytes.Equal(e.Key, k) || !bytes.Equal(e.Value, valueOf(k)) {
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
					if !bytes.Equal(e.Value, valueOf(e.Key)) || (prev != nil && bytes.Compare(prev, e.Key) >= 0) {
						t.Errorf("iterator from %x: entry %d is %v after %x", k, j, e, prev)
						return
					}
					prev = e.Key
				}
			}
		}(r)
	}
	// cut counts the nodes that opened a chunk by the part of them the end
	// of the chunk before would have cut.
	var cut [4]int // header, tower, key, value
	for i := uint64(0); i < n; i++ {
		k := keyOf(i)
		// Only this goroutine writes the table, so it reads the chunks
		// without the lock.
		chunks, room := len(m.chunks), 0
		if chunks > 0 {
			room = len(m.chunks[chunks-1]) - m.used
		}
		m.Put(kv.Entry{Key: k, Value: valueOf(k), TS: int64(i)})
		if chunks > 0 && len(m.chunks) > chunks {
			node := m.chunks[chunks]
			keyStart, keyEnd := keySpan(node)
			switch {
			case room < tower:
				cut[0]++
			case room < keyStart:
				cut[1]++
			case room < keyEnd:
				cut[2]++
			default:
				cut[3]++
			}
		}
		if i%5 == 0 { // overwrites keep the node and its key
			m.Put(kv.Entry{Key: k, Value: valueOf(k), TS: int64(i)})
		}
		published.Store(i + 1)
	}
	wg.Wait()
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for part, c := range cut {
		if c == 0 {
			t.Errorf("no node opened a chunk whose end would have cut its %s (cuts: header, tower, key, value = %v)",
				[]string{"header", "tower", "key", "value"}[part], cut)
		}
	}
	t.Logf("%d chunks; chunk ends fell in header, tower, key, value: %v", len(m.chunks), cut)
}

// TestReferencesNeverWrap: a table that has filled every chunk its
// references can address panics on the next new key instead of handing out
// a reference that wraps onto an older node.
func TestReferencesNeverWrap(t *testing.T) {
	m := New(1)
	m.Put(kv.Entry{Key: []byte("a"), TS: 1})
	// Stand-ins for full chunks: the writer only looks at the open one.
	m.chunks = append(m.chunks, make([][]byte, maxChunks-len(m.chunks))...)
	m.used = 0
	defer func() {
		if recover() == nil {
			t.Fatal("Put past the last addressable chunk did not panic")
		}
	}()
	m.Put(kv.Entry{Key: []byte("b"), TS: 2})
}
