package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/lsm"
	"repro/internal/maint"
)

// setupCCDataset builds a Mutable-bitmap dataset with two flushed
// components holding keys [0, n).
func setupCCDataset(t *testing.T, cc CCMethod, n int) *Dataset {
	t.Helper()
	d := newTestDataset(t, func(c *Config) {
		c.Strategy = MutableBitmap
		c.CC = cc
		c.Policy = nil
		c.MemoryBudget = 1 << 30
	})
	for i := 0; i < n/2; i++ {
		mustUpsert(t, d, uint64(i), "AA", int64(i))
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i := n / 2; i < n; i++ {
		mustUpsert(t, d, uint64(i), "BB", int64(i))
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestConcurrentDeletesDuringMergeNotLost is the Section 5.3 correctness
// property: a delete racing the component builder must be reflected in the
// new component, whether the builder has already passed the key (forwarded
// delete / side-file) or not (bitmap snapshot / re-check under lock).
func TestConcurrentDeletesDuringMergeNotLost(t *testing.T) {
	const n = 4000
	for _, cc := range []CCMethod{SideFile, Lock} {
		cc := cc
		t.Run(cc.String(), func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				d := setupCCDataset(t, cc, n)
				var wg sync.WaitGroup
				deleted := make(map[uint64]bool)
				var mu sync.Mutex

				// Writers delete every 7th key while the merge runs.
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := trial; i < n; i += 7 {
						ok, err := d.Delete(pkOf(uint64(i)))
						if err != nil {
							t.Error(err)
							return
						}
						if ok {
							mu.Lock()
							deleted[uint64(i)] = true
							mu.Unlock()
						}
					}
				}()
				if _, err := d.MergePrimaryRange(0, 2, 0, 2); err != nil {
					t.Fatal(err)
				}
				wg.Wait()

				// Every delete must be observed; every surviving key must
				// still be readable with its record intact.
				for i := 0; i < n; i++ {
					_, found, err := getRecord(d, pkOf(uint64(i)))
					if err != nil {
						t.Fatal(err)
					}
					mu.Lock()
					wantGone := deleted[uint64(i)]
					mu.Unlock()
					if found == wantGone {
						t.Fatalf("cc=%v trial=%d key %d: found=%v deleted=%v",
							cc, trial, i, found, wantGone)
					}
				}
				// The same holds when scanning components directly (the
				// Mutable-bitmap read path that skips reconciliation).
				visible := map[uint64]bool{}
				for _, comp := range d.Primary().Components() {
					scan, err := comp.BTree.NewScan(nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					for {
						e, ord, ok, err := scan.Next()
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							break
						}
						if e.Anti || comp.Valid.IsSet(ord) {
							continue
						}
						k := decodeKey(e.Key)
						if visible[k] {
							t.Fatalf("key %d visible twice across components", k)
						}
						visible[k] = true
					}
				}
				mem := d.Primary().Mem().NewIterator(nil, nil)
				for {
					e, ok := mem.Next()
					if !ok {
						break
					}
					if !e.Anti {
						visible[decodeKey(e.Key)] = true
					}
				}
				for i := uint64(0); i < n; i++ {
					mu.Lock()
					wantGone := deleted[i]
					mu.Unlock()
					if visible[i] == wantGone {
						t.Fatalf("cc=%v trial=%d scan: key %d visible=%v deleted=%v",
							cc, trial, i, visible[i], wantGone)
					}
				}
			}
		})
	}
}

func decodeKey(k []byte) uint64 {
	var v uint64
	for _, b := range k {
		v = v<<8 | uint64(b)
	}
	return v
}

// TestConcurrentUpsertsDuringMerge verifies newer versions written during a
// merge win over merged old versions.
func TestConcurrentUpsertsDuringMerge(t *testing.T) {
	const n = 2000
	for _, cc := range []CCMethod{SideFile, Lock} {
		cc := cc
		t.Run(cc.String(), func(t *testing.T) {
			d := setupCCDataset(t, cc, n)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i += 5 {
					mustUpsert(t, d, uint64(i), "ZZ", int64(10000+i))
				}
			}()
			if _, err := d.MergePrimaryRange(0, 2, 0, 2); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			for i := 0; i < n; i++ {
				e, found, err := getRecord(d, pkOf(uint64(i)))
				if err != nil || !found {
					t.Fatalf("key %d lost: %v", i, err)
				}
				loc, _ := recLocation(e.Value)
				want := "AA"
				if i >= n/2 {
					want = "BB"
				}
				if i%5 == 0 {
					want = "ZZ"
				}
				if string(loc) != want {
					t.Fatalf("cc=%v key %d: location %s want %s", cc, i, loc, want)
				}
			}
		})
	}
}

// TestMergedComponentSharesBitmapWithPK re-checks the shared-bitmap
// invariant after a CC merge.
func TestMergedComponentSharesBitmapWithPK(t *testing.T) {
	d := setupCCDataset(t, SideFile, 1000)
	if _, err := d.MergePrimaryRange(0, 2, 0, 2); err != nil {
		t.Fatal(err)
	}
	p := d.Primary().Components()
	k := d.PKIndex().Components()
	if len(p) != 1 || len(k) != 1 {
		t.Fatalf("components after merge: %d/%d", len(p), len(k))
	}
	if p[0].Valid == nil || p[0].Valid != k[0].Valid {
		t.Fatal("merged primary and pk components must share one bitmap")
	}
	if p[0].NumEntries() != k[0].NumEntries() {
		t.Fatalf("entry counts diverge: %d vs %d", p[0].NumEntries(), k[0].NumEntries())
	}
	// A post-merge delete lands on the shared bitmap.
	if ok, err := d.Delete(pkOf(7)); err != nil || !ok {
		t.Fatal(err, ok)
	}
	if p[0].Valid.Count() != 1 {
		t.Fatalf("bitmap count = %d after post-merge delete", p[0].Valid.Count())
	}
}

// newAsyncDataset opens a dataset with background maintenance on a fresh
// pool: a small budget forces frequent freezes and the tiering policy keeps
// merges flowing, so builds and merges overlap the concurrent writers.
func newAsyncDataset(t *testing.T, pool *maint.Pool, mutate func(*Config)) *Dataset {
	t.Helper()
	return newTestDataset(t, func(c *Config) {
		c.Maintenance = pool
		c.MemoryBudget = 32 << 10
		c.Policy = lsm.NewTiering(0)
		if mutate != nil {
			mutate(c)
		}
	})
}

// TestAsyncConcurrentWritersAndReaders is the background-scheduler race
// battery: concurrent Insert/Delete/Upsert streams (disjoint key ranges per
// writer) race point reads and reconciled secondary scans while flush
// builds and policy merges run on the pool. After a drain, every writer's
// final state must be visible. The real assertions run under -race in CI.
func TestAsyncConcurrentWritersAndReaders(t *testing.T) {
	type variant struct {
		name   string
		mutate func(*Config)
	}
	variants := []variant{
		{"eager", func(c *Config) { c.Strategy = Eager }},
		{"validation", func(c *Config) { c.Strategy = Validation }},
		{"mutable-bitmap/side-file", func(c *Config) { c.Strategy = MutableBitmap; c.CC = SideFile }},
		{"mutable-bitmap/lock", func(c *Config) { c.Strategy = MutableBitmap; c.CC = Lock }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			pool := maint.NewPool(2)
			defer pool.Close()
			d := newAsyncDataset(t, pool, v.mutate)

			const (
				writers = 3
				perW    = 700
			)
			var wg sync.WaitGroup
			errc := make(chan error, writers+1)
			finals := make([]map[uint64]string, writers)
			for w := 0; w < writers; w++ {
				w := w
				finals[w] = make(map[uint64]string)
				wg.Add(1)
				go func() {
					defer wg.Done()
					base := uint64(w) * 1_000_000
					for i := 0; i < perW; i++ {
						pk := base + uint64(i%200)
						loc := fmt.Sprintf("L%02d", (w*7+i)%30)
						switch i % 5 {
						case 3:
							if _, err := d.Delete(pkOf(pk)); err != nil {
								errc <- err
								return
							}
							delete(finals[w], pk)
						case 4:
							if _, err := d.Insert(pkOf(pk), testRecord(loc, int64(2000+i))); err != nil {
								errc <- err
								return
							}
							if _, ok := finals[w][pk]; !ok {
								finals[w][pk] = loc
							}
						default:
							if err := d.Upsert(pkOf(pk), testRecord(loc, int64(2000+i))); err != nil {
								errc <- err
								return
							}
							finals[w][pk] = loc
						}
					}
				}()
			}
			// A reader hammers point lookups and reconciled secondary scans
			// while the writers and the background maintenance jobs run.
			stop := make(chan struct{})
			var rwg sync.WaitGroup
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for pk := uint64(0); pk < 50; pk++ {
						if _, _, err := getRecord(d, pkOf(pk)); err != nil {
							errc <- err
							return
						}
					}
					si := d.Secondary("location")
					v := si.Tree.ReadView()
					it, err := lsm.NewMergedIterator(lsm.IterOptions{
						Components: v.Components, Flushing: v.Flushing, Mem: v.Mem,
						HideAnti: true, SkipInvisible: true,
					})
					if err != nil {
						v.Release()
						errc <- err
						return
					}
					for {
						_, ok, err := it.Next()
						if err != nil {
							v.Release()
							errc <- err
							return
						}
						if !ok {
							break
						}
					}
					v.Release()
				}
			}()
			wg.Wait()
			close(stop)
			rwg.Wait()
			select {
			case err := <-errc:
				t.Fatal(err)
			default:
			}
			if err := d.FlushAll(); err != nil {
				t.Fatal(err)
			}
			for w := 0; w < writers; w++ {
				base := uint64(w) * 1_000_000
				for off := uint64(0); off < 200; off++ {
					pk := base + off
					e, found, err := getRecord(d, pkOf(pk))
					if err != nil {
						t.Fatal(err)
					}
					want, ok := finals[w][pk]
					if found != ok {
						t.Fatalf("%s: writer %d key %d: found=%v want %v", v.name, w, pk, found, ok)
					}
					if found {
						if loc, _ := recLocation(e.Value); string(loc) != want {
							t.Fatalf("%s: writer %d key %d: location %s want %s", v.name, w, pk, loc, want)
						}
					}
				}
			}
		})
	}
}
