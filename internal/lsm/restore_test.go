package lsm

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bloom"
	"repro/internal/btree"
	"repro/internal/kv"
	"repro/internal/storage"
)

func sentinelKey(i int) []byte { return []byte(fmt.Sprintf("sentinel-%04d", i)) }

// rawFilter is an encoded filter given as its bytes, so a test can put any
// bytes in a component file's filter pages.
type rawFilter []byte

func (f rawFilter) EncodedLen() int { return len(f) }
func (f rawFilter) AppendEncoded(dst []byte, off, n int) []byte {
	return append(dst, f[off:off+n]...)
}

// buildComponentFile writes keys 0..n-1 into a component file of tr's store
// as a flush would, except that the file's filter pages hold filter (none
// when filter is nil).
func buildComponentFile(t *testing.T, tr *Tree, n int, filter btree.EncodedFilter) storage.FileID {
	t.Helper()
	b := btree.NewBuilder(tr.opts.Store)
	var payload []byte
	for i := 0; i < n; i++ {
		e := kv.Entry{Key: key(i), Value: val(i), TS: int64(i)}
		payload = kv.AppendPayload(payload[:0], e)
		if err := b.Add(e.Key, payload); err != nil {
			t.Fatal(err)
		}
	}
	r, err := b.FinishWithFilter(filter)
	if err != nil {
		t.Fatal(err)
	}
	return r.FileID()
}

// TestFlushWritesFilterPages: a v2 tree's flush writes the component's
// filter into the component file, over more than one page here, and the
// pages read back as the filter's encoding; a tree with the paper's
// cost-model filter writes none.
func TestFlushWritesFilterPages(t *testing.T) {
	const n = 2048
	for _, kind := range []bloom.Kind{bloom.KindV2, bloom.KindStandard} {
		tr, _ := newTestTree(t, 1024, func(o *Options) { o.Bloom = kind })
		for i := 0; i < n; i++ {
			tr.Put(kv.Entry{Key: key(i), Value: val(i), TS: int64(i)})
		}
		comp, err := tr.Flush(1)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := comp.BTree.AppendFilter(nil)
		if err != nil {
			t.Fatal(err)
		}
		v2, isV2 := comp.Bloom.(*bloom.V2)
		if kind != bloom.KindV2 {
			if len(enc) != 0 {
				t.Fatalf("kind %d: the file carries %d filter bytes, want none", kind, len(enc))
			}
			continue
		}
		if !isV2 {
			t.Fatalf("flushed filter is %T, want *bloom.V2", comp.Bloom)
		}
		if len(enc) <= 1024 {
			t.Fatalf("filter of %d bytes fits one page; the test wants several", len(enc))
		}
		if !bytes.Equal(enc, v2.AppendTo(nil)) {
			t.Fatal("the file's filter pages differ from the flushed filter's encoding")
		}
	}
}

// TestRestoreUsesPersistedBloomV2 proves the reopen path decodes the filter
// the component file carries instead of rebuilding it by scan: the file's
// filter pages hold a sentinel filter built over a disjoint key set, and
// the filter that comes back must recognize the sentinels. A rebuilt filter
// would instead admit every one of the component's own keys, so the test
// also requires that at least some of those keys miss.
func TestRestoreUsesPersistedBloomV2(t *testing.T) {
	const n = 2048
	tr, _ := newTestTree(t, 1024, func(o *Options) { o.Bloom = bloom.KindV2 })
	sentinel := bloom.NewV2FPR(n, 0.01)
	for i := 0; i < n; i++ {
		sentinel.Add(sentinelKey(i))
	}
	file := buildComponentFile(t, tr, n, sentinel)

	comps, err := tr.Restore([]RestoredComponent{{ID: ID{MinTS: 0, MaxTS: n - 1}, File: file}})
	if err != nil {
		t.Fatal(err)
	}
	got := comps[0].Bloom
	for i := 0; i < n; i++ {
		if ok, _ := got.MayContain(sentinelKey(i)); !ok {
			t.Fatalf("restored filter lost sentinel %d: the file's filter pages were not used", i)
		}
	}
	misses := 0
	for i := 0; i < n; i++ {
		if ok, _ := got.MayContain(key(i)); !ok {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("restored filter admits every component key; it was rebuilt by scan, not decoded")
	}
}

// TestRestoreBloomFallbacks: a component file without filter pages, or
// whose filter pages do not decode, is not an error — Restore rebuilds the
// filter from the component's keys, and the rebuilt filter must admit all
// of them.
func TestRestoreBloomFallbacks(t *testing.T) {
	const n = 2048
	tr, _ := newTestTree(t, 1024, func(o *Options) { o.Bloom = bloom.KindV2 })
	good := bloom.NewV2FPR(n, 0.01).AppendTo(nil)
	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0xFF // UnmarshalV2 rejects it
	for name, filter := range map[string]btree.EncodedFilter{
		"missing":   nil,
		"bad magic": rawFilter(badMagic),
		"truncated": rawFilter(good[:len(good)-3]),
	} {
		file := buildComponentFile(t, tr, n, filter)
		comps, err := tr.Restore([]RestoredComponent{{ID: ID{MinTS: 0, MaxTS: n - 1}, File: file}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := comps[0].Bloom
		if _, ok := got.(*bloom.V2); !ok {
			t.Fatalf("%s: rebuilt filter is %T, want *bloom.V2", name, got)
		}
		for i := 0; i < n; i++ {
			if ok, _ := got.MayContain(key(i)); !ok {
				t.Fatalf("%s: rebuilt filter lost component key %d", name, i)
			}
		}
	}
}
