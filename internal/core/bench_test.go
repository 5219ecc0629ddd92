package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/lsm"
	"repro/internal/metrics"
	"repro/internal/storage"
)

func benchDataset(b *testing.B, strategy Strategy) *Dataset {
	b.Helper()
	env := metrics.NopEnv()
	disk := storage.NewDisk(storage.ScaledHDD(32 << 10))
	store := storage.NewStore(disk, 16<<20, env)
	cfg := Config{
		Store:        store,
		Strategy:     strategy,
		Secondaries:  []SecondarySpec{{Name: "location", Extract: recLocation}},
		MemoryBudget: 1 << 20,
		UsePKIndex:   true,
		BloomFPR:     0.01,
		Policy:       lsm.NewTiering(8 << 20),
		Seed:         2,
	}
	d, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkUpsertByStrategy measures per-operation real cost of the write
// paths (the virtual clock measures simulated cost; this measures the
// implementation itself). Quote it at -benchtime=100000x: the flushes and
// merges a run triggers are amortized over its iterations, so allocs/op
// depends on b.N, and figures taken at different counts compare different
// workloads. mallocs/op is allocs/op unrounded.
//
// Each strategy has two rows. The plain one cycles 50 000 keys through the
// 1 MiB memory budget, so every upsert replaces a version already flushed.
// The "-hot" row overwrites hotKeys keys written before the timer starts:
// every upsert replaces a version still in the memory component, the
// overwrite path the served ingest-batch updates take. Each overwrite is
// charged its record's length, so at 100000x the hot set fills the 1 MiB
// budget about once and the row carries one flush's cost.
func BenchmarkUpsertByStrategy(b *testing.B) {
	const hotKeys = 2000
	for _, strategy := range []Strategy{Eager, Validation, MutableBitmap, DeletedKey} {
		for _, row := range []struct {
			suffix  string
			keys    int
			preload bool
		}{{"", 50000, false}, {"-hot", hotKeys, true}} {
			b.Run(strategy.String()+row.suffix, func(b *testing.B) {
				d := benchDataset(b, strategy)
				rec := testRecord("CA", 2015)
				for i := 0; row.preload && i < row.keys; i++ {
					if err := d.Upsert(pkOf(uint64(i)), rec); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := d.Upsert(pkOf(uint64(i%row.keys)), rec); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "mallocs/op")
			})
		}
	}
}

// BenchmarkPointGet measures reconciled reads across several components.
func BenchmarkPointGet(b *testing.B) {
	d := benchDataset(b, Eager)
	for i := 0; i < 50000; i++ {
		if err := d.Upsert(pkOf(uint64(i)), testRecord(fmt.Sprintf("L%02d", i%20), 2015)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found, err := d.Primary().Get(pkOf(uint64(i*31)%50000), nil)
		if err != nil || !found {
			b.Fatal(err, found)
		}
	}
}

// BenchmarkFlush measures memory-component bulk loads.
func BenchmarkFlush(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := benchDataset(b, Validation)
		for j := 0; j < 5000; j++ {
			if err := d.Upsert(pkOf(uint64(j)), testRecord("CA", 2015)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := d.FlushAll(); err != nil {
			b.Fatal(err)
		}
	}
}
