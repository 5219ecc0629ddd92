// Package repro is the root of a from-scratch Go reproduction of Luo &
// Carey, "Efficient Data Ingestion and Query Processing for LSM-Based
// Storage Systems" (PVLDB 12(5), 2019).
//
// The public API lives in package lsmstore; the engine internals live under
// internal/ (see README.md for the map). Beyond the paper, the store runs
// in hash-sharded mode (lsmstore.Options.Shards, lsmstore/router.go): N
// independent dataset partitions ingest batches concurrently via
// ApplyBatch while queries fan out and merge, scaling the paper's single-
// partition engine toward production traffic. Background maintenance
// (lsmstore.Options.MaintenanceWorkers, internal/maint) moves flush builds
// and policy merges off the write path onto a bounded worker pool, with
// backpressure and a two-lane cost model (ingest vs maintenance virtual
// time).
//
// This root package holds the benchmark harness: bench_test.go regenerates
// every figure of the paper's evaluation via internal/experiments, and
// ingest_scaling_test.go sweeps shard counts over the same ingest workload
// (BenchmarkShardedIngest with sync and maint=N variants,
// TestShardedIngestScaling, TestAsyncIngestThroughput).
package repro
