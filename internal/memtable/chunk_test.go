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
// one (a secondary or primary-key index entry), a key's first overwrite and
// every later one cost only a share of a chunk.
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
	if got := mallocsPer(runs, overwrite); got > 0.1 {
		t.Errorf("repeat overwrite: %v allocations, want under 0.1", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after overwrites, want 1", m.Len())
	}
}

// TestHotKeyHeapTracksBytes overwrites one key in place many times amid a
// trickle of new keys. Every value stays in the chunks until the flush, and
// Bytes() must charge every one, so the heap the table holds stays within
// the 1.15× of Bytes() that TestHeapTracksBudget allows a served table: a
// hot key fills the budget, and so gets flushed, as new keys do.
func TestHotKeyHeapTracksBytes(t *testing.T) {
	const (
		overwrites = 100_000
		valueSize  = 200
		newKeyEach = 256 // overwrites per new key-only entry
	)
	value := make([]byte, valueSize)
	hot := []byte("hot")
	var key [8]byte
	before := liveHeap()
	m := New(1)
	m.Put(kv.Entry{Key: hot, Value: value, TS: 0})
	for i := 1; i <= overwrites; i++ {
		value[0] = byte(i)
		m.Put(kv.Entry{Key: hot, Value: value, TS: int64(i)})
		if i%newKeyEach == 0 {
			binary.BigEndian.PutUint64(key[:], uint64(i))
			m.Put(kv.Entry{Key: key[:], TS: int64(i)})
		}
	}
	heap := float64(liveHeap() - before)
	if e, ok := m.Get(hot); !ok || e.TS != overwrites || !bytes.Equal(e.Value, value) {
		t.Fatalf("Get(hot) = %v, %v after %d overwrites", e, ok, overwrites)
	}
	t.Logf("%d overwrites of one key: heap %.0f B, Bytes() %d, %.3f×", overwrites, heap, m.Bytes(), heap/float64(m.Bytes()))
	if m.Bytes() < overwrites*valueSize {
		t.Fatalf("Bytes() = %d after %d overwrites of %d bytes: an overwrite went uncharged", m.Bytes(), overwrites, valueSize)
	}
	if heap > 1.15*float64(m.Bytes()) {
		t.Fatalf("%d overwrites of one key: heap %.0f B is %.3f× Bytes() = %d, want at most 1.15×",
			overwrites, heap, heap/float64(m.Bytes()), m.Bytes())
	}
	runtime.KeepAlive(m)
}

// TestOverwritesKeepReadersValues: a value a reader took before a key's
// first and second overwrites still reads its own bytes after them, for a
// first value inline behind the key and for an overwrite's value record —
// a new value never goes where an old one was.
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
// that fills chunk after chunk with nodes of uneven sizes, some too large
// to share a chunk, and overwrites keys readers are reading, so value
// records land across chunk ends too: a reader must never see a node whose
// key or value is not the one put for it, wherever the node or its record
// landed. Nothing carved straddles a chunk's end — what does not fit opens
// the next chunk — and the writer checks that, among the nodes that opened
// one, the end of the chunk before would have cut each part: the header,
// the tower, the key and the value; and that some value records opened one
// too. Run it under -race.
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
			l = maxInline + 1 // a chunk of its own
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
	// put puts k's entry and returns the room the open chunk had left if
	// the put opened the next one, -1 if it did not. Only this goroutine
	// writes the table, so it reads the chunks without the lock.
	put := func(k []byte, ts uint64) int {
		open, room := m.open, -1
		if len(m.chunks) > 0 {
			room = len(m.chunks[open]) - m.used
		}
		m.Put(kv.Entry{Key: k, Value: valueOf(k), TS: int64(ts)})
		if room >= 0 && m.open != open {
			return room
		}
		return -1
	}
	// cut counts the nodes that opened a chunk by the part of them the end
	// of the chunk before would have cut, then the value records that did.
	var cut [5]int // header, tower, key, value, record
	for i := uint64(0); i < n; i++ {
		k := keyOf(i)
		if room := put(k, i); room >= 0 {
			keyStart, keyEnd := keySpan(m.chunks[m.open])
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
		published.Store(i + 1)
		if i%5 == 0 { // an overwrite keeps the node and its key, under readers
			if put(keyOf(i/2), i) >= 0 {
				cut[4]++
			}
		}
	}
	wg.Wait()
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for part, c := range cut {
		if c == 0 {
			t.Errorf("no %s opened a chunk (cuts: header, tower, key, value, record = %v)",
				[]string{"node's header", "node's tower", "node's key", "node's value", "value record"}[part], cut)
		}
	}
	t.Logf("%d chunks; chunk ends fell in header, tower, key, value, record: %v", len(m.chunks), cut)
}

// TestReferencesNeverWrap: a table that has filled every chunk its
// references can address panics on the next new key instead of handing out
// a reference that wraps onto an older node.
func TestReferencesNeverWrap(t *testing.T) {
	m := New(1)
	m.Put(kv.Entry{Key: []byte("a"), TS: 1})
	// Stand-ins for full chunks: the writer only looks at the open one.
	m.chunks = append(m.chunks, make([][]byte, maxChunks-len(m.chunks))...)
	m.open, m.used = len(m.chunks)-1, 0
	defer func() {
		if recover() == nil {
			t.Fatal("Put past the last addressable chunk did not panic")
		}
	}()
	m.Put(kv.Entry{Key: []byte("b"), TS: 2})
}
