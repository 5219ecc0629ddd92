package cache_test

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/storage"
)

// TestStatsAndReset: the cache keeps no statistics of its own; the Store
// in front of it counts hits and misses into the environment's counters,
// and Reset empties the cache without touching them.
func TestStatsAndReset(t *testing.T) {
	env := metrics.NewEnv()
	store := storage.NewStore(storage.NewDisk(storage.ScaledHDD(512)), 2*512, env)
	f := store.Create()
	if _, err := store.AppendPage(f, []byte("a")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // a miss, then a hit
		fr, err := store.ReadPage(f, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		store.Unpin(fr)
	}
	if s := env.Counters.Snapshot(); s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", s.CacheHits, s.CacheMisses)
	}
	store.Cache().Reset()
	if store.Cache().Len() != 0 {
		t.Fatal("Reset left pages cached")
	}
	if s := env.Counters.Snapshot(); s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Fatalf("Reset changed the counters: %d/%d", s.CacheHits, s.CacheMisses)
	}
}
