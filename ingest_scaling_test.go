package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/lsmstore"
)

// shardedIngestOptions is the configuration the sharded ingest benchmarks
// run against: Validation strategy (the paper's best ingestion strategy),
// one secondary index, and a fixed total cache and memory budget that the
// store splits across shards, so every shard count gets the same resources.
func shardedIngestOptions(shards int) lsmstore.Options {
	return lsmstore.Options{
		Strategy:      lsmstore.Validation,
		Secondaries:   []lsmstore.SecondaryIndex{{Name: "user", Extract: workload.UserIDOf}},
		FilterExtract: workload.CreationOf,
		MemoryBudget:  1 << 20,
		CacheBytes:    16 << 20,
		PageSize:      8 << 10,
		Seed:          3,
		Shards:        shards,
	}
}

// ingestBatch generates n tweet upserts (20% updates, Zipf-skewed).
func ingestBatch(n int) []lsmstore.Mutation {
	cfg := workload.DefaultConfig(3)
	cfg.UpdateRatio = 0.20
	cfg.ZipfUpdates = true
	gen := workload.NewGenerator(cfg)
	muts := make([]lsmstore.Mutation, n)
	for i := range muts {
		op := gen.Next()
		muts[i] = lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: op.Tweet.PK(), Record: op.Tweet.Encode()}
	}
	return muts
}

// simulatedTime parses the cost-model clock out of a stats snapshot.
func simulatedTime(tb testing.TB, st lsmstore.Stats) time.Duration {
	d, err := time.ParseDuration(st.SimulatedTime)
	if err != nil {
		tb.Fatalf("bad simulated time %q: %v", st.SimulatedTime, err)
	}
	return d
}

// ingestOnce ingests the batch into a fresh store with the given shard
// count and returns the simulated time of the run (max over shards — they
// progress concurrently on independent devices).
func ingestOnce(tb testing.TB, shards int, batch []lsmstore.Mutation) time.Duration {
	db, err := lsmstore.Open(shardedIngestOptions(shards))
	if err != nil {
		tb.Fatal(err)
	}
	defer db.Close()
	if err := db.ApplyBatch(batch); err != nil {
		tb.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		tb.Fatal(err)
	}
	return simulatedTime(tb, db.Stats())
}

// ingestOnceAsync ingests the batch with background maintenance enabled and
// returns the ingest-lane simulated time at the end of the write phase (the
// time the write path experienced: memtable and log work plus any
// backpressure coupling) together with the total write-stall count.
func ingestOnceAsync(tb testing.TB, shards, workers int, batch []lsmstore.Mutation) (ingest time.Duration, stalls int64) {
	opts := shardedIngestOptions(shards)
	opts.MaintenanceWorkers = workers
	db, err := lsmstore.Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	defer db.Close()
	if err := db.ApplyBatch(batch); err != nil {
		tb.Fatal(err)
	}
	st := db.Stats()
	ingest, err = time.ParseDuration(st.IngestTime)
	if err != nil {
		tb.Fatalf("bad ingest time %q: %v", st.IngestTime, err)
	}
	if err := db.Flush(); err != nil {
		tb.Fatal(err)
	}
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
	return ingest, st.Counters.WriteStalls
}

// BenchmarkShardedIngest sweeps the shard count over the same ApplyBatch
// ingest workload. The headline metric is records per simulated second
// (the paper's methodology: the virtual clock models the storage devices,
// and shards own independent devices); wall time is reported by the
// harness as usual. The maint=N variants enable background maintenance
// with N pool workers and report the ingest-lane time: the virtual time
// the write path experienced while flush builds and merges overlapped on
// the maintenance lane (stall coupling included).
func BenchmarkShardedIngest(b *testing.B) {
	batch := ingestBatch(40_000)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var sim time.Duration
			for i := 0; i < b.N; i++ {
				sim = ingestOnce(b, shards, batch)
			}
			b.ReportMetric(float64(len(batch))/sim.Seconds(), "records/simsec")
			b.ReportMetric(sim.Seconds(), "simsec/run")
		})
	}
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards=4/maint=%d", workers), func(b *testing.B) {
			var ingest time.Duration
			var stalls int64
			for i := 0; i < b.N; i++ {
				ingest, stalls = ingestOnceAsync(b, 4, workers, batch)
			}
			b.ReportMetric(float64(len(batch))/ingest.Seconds(), "records/simsec")
			b.ReportMetric(ingest.Seconds(), "simsec/run")
			b.ReportMetric(float64(stalls), "stalls/run")
		})
	}
}

// TestAsyncIngestThroughput pins the background-maintenance acceptance bar:
// with 4 shards and a pool of at least 2 maintenance workers, the write
// path's simulated ingest time must beat the synchronous path by >= 1.5x
// (in practice the gap is close to an order of magnitude — the synchronous
// path charges every flush and merge to the writer).
func TestAsyncIngestThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement is not short")
	}
	batch := ingestBatch(30_000)
	syncTime := ingestOnce(t, 4, batch)
	asyncTime, stalls := ingestOnceAsync(t, 4, 2, batch)
	t.Logf("ingest simulated time: sync %v, async %v (%.2fx, %d stalls)",
		syncTime, asyncTime, float64(syncTime)/float64(asyncTime), stalls)
	if float64(syncTime) < 1.5*float64(asyncTime) {
		t.Fatalf("async ingest is only %.2fx of sync, want >= 1.5x (sync=%v async=%v)",
			float64(syncTime)/float64(asyncTime), syncTime, asyncTime)
	}
}

// TestShardedIngestScaling pins the acceptance bar: 4 shards must ingest
// the same batch at least 2x faster (simulated time) than 1 shard.
func TestShardedIngestScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement is not short")
	}
	batch := ingestBatch(30_000)
	t1 := ingestOnce(t, 1, batch)
	t4 := ingestOnce(t, 4, batch)
	t.Logf("ingest simulated time: 1 shard %v, 4 shards %v (%.2fx)", t1, t4, float64(t1)/float64(t4))
	if 2*t4 > t1 {
		t.Fatalf("4-shard ingest is %.2fx of 1-shard, want >= 2x (t1=%v t4=%v)",
			float64(t1)/float64(t4), t1, t4)
	}
}
