package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/kv"
)

func TestPutGetReplace(t *testing.T) {
	m := New(1)
	m.Put(kv.Entry{Key: []byte("a"), Value: []byte("1"), TS: 1})
	m.Put(kv.Entry{Key: []byte("b"), Value: []byte("2"), TS: 2})
	m.Put(kv.Entry{Key: []byte("a"), Value: []byte("3"), TS: 3})

	e, ok := m.Get([]byte("a"))
	if !ok || string(e.Value) != "3" || e.TS != 3 {
		t.Fatalf("Get(a) = %v, %v", e, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (replace must not duplicate)", m.Len())
	}
	if _, ok := m.Get([]byte("c")); ok {
		t.Fatal("Get(c) should miss")
	}
}

func TestAntiMatterStored(t *testing.T) {
	m := New(1)
	m.Put(kv.Entry{Key: []byte("k"), Value: []byte("v"), TS: 1})
	m.Put(kv.Entry{Key: []byte("k"), TS: 2, Anti: true})
	e, ok := m.Get([]byte("k"))
	if !ok || !e.Anti || e.TS != 2 {
		t.Fatalf("anti-matter not stored: %v %v", e, ok)
	}
}

// TestIteratorHonoursLowerBoundAfterConcurrentPut: NewIterator parks on
// lo's predecessor, so a key put afterwards between that predecessor and lo
// is the next node in the list — Next must not return it.
func TestIteratorHonoursLowerBoundAfterConcurrentPut(t *testing.T) {
	m := New(1)
	m.Put(kv.Entry{Key: []byte("a"), Value: []byte("1"), TS: 1})
	m.Put(kv.Entry{Key: []byte("d"), Value: []byte("4"), TS: 2})
	it := m.NewIterator([]byte("c"), nil)
	m.Put(kv.Entry{Key: []byte("b"), Value: []byte("2"), TS: 3})
	var got []string
	for e, ok := it.Next(); ok; e, ok = it.Next() {
		got = append(got, string(e.Key))
	}
	if fmt.Sprint(got) != "[d]" {
		t.Fatalf("iterator over [c, ∞) returned %q, want [d]", got)
	}
}

func TestIteratorSortedAndBounded(t *testing.T) {
	m := New(2)
	rng := rand.New(rand.NewSource(3))
	model := map[string]string{}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("%06d", rng.Intn(10000))
		v := fmt.Sprintf("v%d", i)
		model[k] = v
		m.Put(kv.Entry{Key: []byte(k), Value: []byte(v), TS: int64(i)})
	}
	var keys []string
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	it := m.NewIterator(nil, nil)
	for i := 0; ; i++ {
		e, ok := it.Next()
		if !ok {
			if i != len(keys) {
				t.Fatalf("iterator stopped at %d, want %d", i, len(keys))
			}
			break
		}
		if string(e.Key) != keys[i] || string(e.Value) != model[keys[i]] {
			t.Fatalf("entry %d: got %q", i, e.Key)
		}
	}

	lo, hi := []byte("002000"), []byte("003000")
	it2 := m.NewIterator(lo, hi)
	for {
		e, ok := it2.Next()
		if !ok {
			break
		}
		if bytes.Compare(e.Key, lo) < 0 || bytes.Compare(e.Key, hi) >= 0 {
			t.Fatalf("bounded iterator leaked %q", e.Key)
		}
	}
}

func TestIDTracksTimestamps(t *testing.T) {
	m := New(1)
	if minTS, maxTS := m.ID(); minTS != -1 || maxTS != -1 {
		t.Fatal("empty table should have ID (-1,-1)")
	}
	m.Put(kv.Entry{Key: []byte("a"), TS: 10})
	m.Put(kv.Entry{Key: []byte("b"), TS: 5})
	m.Put(kv.Entry{Key: []byte("c"), TS: 20})
	if minTS, maxTS := m.ID(); minTS != 5 || maxTS != 20 {
		t.Fatalf("ID = (%d,%d), want (5,20)", minTS, maxTS)
	}
}

func TestFilterWidening(t *testing.T) {
	m := New(1)
	if _, _, ok := m.Filter(); ok {
		t.Fatal("fresh table should have no filter")
	}
	m.WidenFilter(2015)
	m.WidenFilter(2018)
	m.WidenFilter(2016)
	min, max, ok := m.Filter()
	if !ok || min != 2015 || max != 2018 {
		t.Fatalf("Filter = (%d,%d,%v)", min, max, ok)
	}
}

// TestBytesAccounting: a new key is charged its entry's size and every
// overwrite its value's length; the value it supersedes stays in the
// chunks, so nothing is taken off and Bytes never falls.
func TestBytesAccounting(t *testing.T) {
	m := New(1)
	e := kv.Entry{Key: []byte("k1"), Value: make([]byte, 100)}
	m.Put(e)
	if got := m.Bytes(); got != e.Size() {
		t.Fatalf("Bytes = %d after a new key, want its entry's size %d", got, e.Size())
	}
	want := e.Size()
	for _, n := range []int{10, 0, 100, 1} {
		m.Put(kv.Entry{Key: []byte("k1"), Value: make([]byte, n)})
		want += n
		if got := m.Bytes(); got != want {
			t.Fatalf("Bytes = %d after overwriting with %d value bytes, want %d: it never falls", got, n, want)
		}
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	m := New(9)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("%05d", rng.Intn(2000))
				m.Get([]byte(k))
				it := m.NewIterator([]byte(k), nil)
				for i := 0; i < 5; i++ {
					if _, ok := it.Next(); !ok {
						break
					}
				}
			}
		}(int64(r))
	}
	for i := 0; i < 20000; i++ {
		k := fmt.Sprintf("%05d", i%2000)
		m.Put(kv.Entry{Key: []byte(k), Value: []byte(fmt.Sprint(i)), TS: int64(i)})
	}
	close(stop)
	wg.Wait()
	if m.Len() != 2000 {
		t.Fatalf("Len = %d, want 2000", m.Len())
	}
}

// TestAgainstModelRandomOps puts random entries, some with an empty key,
// a key or a value larger than a chunk or an empty value, and checks the
// table against a model of what was put last for each key.
func TestAgainstModelRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := New(5)
	model := map[string]kv.Entry{}
	for i := 0; i < 20000; i++ {
		k := []byte(fmt.Sprintf("%04d", rng.Intn(3000)))
		switch r := rng.Intn(1000); {
		case r == 0:
			k = bytes.Repeat(k, chunkSize/len(k)+1) // a node that gets a chunk of its own size
		case r <= 10:
			k = nil
		}
		e := kv.Entry{Key: k, TS: int64(i), Anti: rng.Intn(4) == 0}
		if !e.Anti {
			switch r := rng.Intn(1000); {
			case r < 2:
				e.Value = bytes.Repeat([]byte{byte(i)}, chunkSize+rng.Intn(100))
			case r < 100:
				// empty
			case r < 200:
				e.Value = bytes.Repeat([]byte{byte(i)}, 100)
			default:
				e.Value = []byte(fmt.Sprint(rng.Intn(1000)))
			}
		}
		m.Put(e)
		model[string(k)] = e
	}
	if err := matches(m, model); err != nil {
		t.Fatal(err)
	}
}
