package lsm

import (
	"fmt"
	"testing"

	"repro/internal/bloom"
	"repro/internal/kv"
)

func sentinelKey(i int) []byte { return []byte(fmt.Sprintf("sentinel-%04d", i)) }

// TestRestoreUsesPersistedBloomV2 proves the reopen path decodes the
// manifest's persisted filter instead of rebuilding it by scan: the
// restored image carries a sentinel filter built over a disjoint key set,
// and the filter that comes back must recognize the sentinels. A rebuilt
// filter would instead admit every one of the component's own keys, so
// the test also requires that at least some of those keys miss.
func TestRestoreUsesPersistedBloomV2(t *testing.T) {
	const n = 512
	tr, _ := newTestTree(t, 1024, func(o *Options) { o.Bloom = bloom.KindV2 })
	for i := 0; i < n; i++ {
		tr.Put(kv.Entry{Key: key(i), Value: val(i), TS: int64(i)})
	}
	comp, err := tr.Flush(1)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := bloom.NewV2FPR(n, 0.01)
	for i := 0; i < n; i++ {
		sentinel.Add(sentinelKey(i))
	}
	image := RestoredComponent{
		ID:       comp.ID,
		EpochMin: comp.EpochMin,
		EpochMax: comp.EpochMax,
		File:     comp.BTree.FileID(),
		Bloom:    sentinel.Marshal(),
	}

	comps, err := tr.Restore([]RestoredComponent{image})
	if err != nil {
		t.Fatal(err)
	}
	got := comps[0].Bloom
	for i := 0; i < n; i++ {
		if ok, _ := got.MayContain(sentinelKey(i)); !ok {
			t.Fatalf("restored filter lost sentinel %d: the persisted encoding was not used", i)
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

// TestRestoreBloomFallbacks: a missing or corrupt persisted filter is not
// an error — Restore rebuilds the filter from the component's keys, and
// the rebuilt filter must admit all of them.
func TestRestoreBloomFallbacks(t *testing.T) {
	const n = 512
	tr, _ := newTestTree(t, 1024, func(o *Options) { o.Bloom = bloom.KindV2 })
	for i := 0; i < n; i++ {
		tr.Put(kv.Entry{Key: key(i), Value: val(i), TS: int64(i)})
	}
	comp, err := tr.Flush(1)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), comp.Bloom.(*bloom.V2).Marshal()...)
	corrupt[0] ^= 0xFF // breaks the magic; UnmarshalV2 rejects it
	for name, enc := range map[string][]byte{"missing": nil, "corrupt": corrupt} {
		image := RestoredComponent{
			ID:       comp.ID,
			EpochMin: comp.EpochMin,
			EpochMax: comp.EpochMax,
			File:     comp.BTree.FileID(),
			Bloom:    enc,
		}
		comps, err := tr.Restore([]RestoredComponent{image})
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
