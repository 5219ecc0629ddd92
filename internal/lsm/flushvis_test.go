package lsm

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// TestReadVisibilityDuringFlush hammers point reads while a flush moves the
// memory component to disk: every key must stay visible throughout, because
// Flush keeps the frozen memtable readable (Tree.flushing) until its disk
// component is installed. Before that fix a reader could observe the window
// where entries were in neither the memtable nor the component list.
func TestReadVisibilityDuringFlush(t *testing.T) {
	for round := 0; round < 3; round++ {
		env := metrics.NopEnv()
		store := storage.NewStore(storage.NewDisk(storage.ScaledHDD(1<<10)), 1<<20, env)
		tr := New(Options{Name: "t", Store: store, Seed: int64(round)})
		// Large enough that the build outlasts a scheduler preemption slice
		// even on one CPU, so the reader goroutine observes the window.
		const n = 120_000
		for i := 0; i < n; i++ {
			tr.Put(kv.Entry{Key: []byte(fmt.Sprintf("key-%05d", i)), Value: []byte("v"), TS: int64(i + 1)})
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		var mu sync.Mutex
		var missing []string
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < n; i += 997 {
					key := []byte(fmt.Sprintf("key-%05d", i))
					_, found, err := get(tr, key)
					if err != nil {
						mu.Lock()
						missing = append(missing, fmt.Sprintf("%s: %v", key, err))
						mu.Unlock()
						return
					}
					if !found {
						mu.Lock()
						missing = append(missing, string(key))
						mu.Unlock()
						return
					}
				}
			}
		}()
		if _, err := tr.Flush(1); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		if len(missing) > 0 {
			t.Fatalf("round %d: keys invisible during flush: %v", round, missing[:1])
		}
		// Sanity: view is clean after the flush.
		v := tr.ReadView()
		mem, flushing, comps := v.Mem, v.Flushing, v.Components
		v.Release()
		if len(flushing) != 0 {
			t.Fatal("flushing table still set after flush")
		}
		if mem.Len() != 0 || len(comps) != 1 {
			t.Fatalf("unexpected post-flush view: mem=%d comps=%d", mem.Len(), len(comps))
		}
	}
}
