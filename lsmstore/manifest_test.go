package lsmstore_test

import (
	"sync"
	"testing"

	"repro/internal/kv"
	"repro/internal/storage"
	"repro/internal/workload"
	"repro/lsmstore"
)

// manifestSizes records the length of every manifest a device saves.
type manifestSizes struct {
	storage.Durable
	mu    *sync.Mutex
	sizes *[]int
}

func (m manifestSizes) SaveManifest(data []byte) error {
	m.mu.Lock()
	*m.sizes = append(*m.sizes, len(data))
	m.mu.Unlock()
	return m.Durable.SaveManifest(data)
}

// TestManifestStaysSmall: on a served-shape ingest — two shards, a
// Validation store with the user secondary index, background maintenance,
// batches of 64 upserts half of which update past keys — no manifest save
// writes more than 4 KiB. The Bloom filters live in the component files,
// so a save holds only the component list; when the manifest carried the
// filters, the same shape saved about 500 KiB each time.
func TestManifestStaysSmall(t *testing.T) {
	const (
		batches = 500
		maxSave = 4 << 10
	)
	var mu sync.Mutex
	var sizes []int
	opts := lsmstore.Options{
		Dir:                t.TempDir(),
		Strategy:           lsmstore.Validation,
		Secondaries:        []lsmstore.SecondaryIndex{{Name: "user", Extract: workload.UserIDOf}},
		FilterExtract:      workload.CreationOf,
		Shards:             2,
		MaintenanceWorkers: 2,
		MemoryBudget:       1 << 20,
		WrapDevice: func(_ int, dev storage.Device) storage.Device {
			return manifestSizes{Durable: dev.(storage.Durable), mu: &mu, sizes: &sizes}
		},
	}
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig(1)
	cfg.UpdateRatio = 0.5
	gen := workload.NewGenerator(cfg)
	muts := make([]lsmstore.Mutation, 64)
	for range batches {
		for i := range muts {
			tw := gen.Next().Tweet
			muts[i] = lsmstore.Mutation{Op: kv.OpUpsert, PK: tw.PK(), Record: tw.Encode()}
		}
		if err := db.ApplyBatch(muts); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(sizes) < 10 {
		t.Fatalf("setup: %d manifest saves; the ingest should install many components", len(sizes))
	}
	total, largest := 0, 0
	for _, n := range sizes {
		total += n
		largest = max(largest, n)
	}
	t.Logf("%d saves, %d bytes per save on average, %d at most", len(sizes), total/len(sizes), largest)
	if largest > maxSave {
		t.Errorf("a manifest save wrote %d bytes, want at most %d", largest, maxSave)
	}
}
