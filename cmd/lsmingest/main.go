// Command lsmingest drives the synthetic tweet workload (Section 6.1) into
// a store with a chosen maintenance strategy and reports ingestion
// statistics: simulated throughput, component counts, I/O counters, and
// write amplification.
//
// Usage:
//
//	lsmingest -strategy validation -ops 50000 -update-ratio 0.5 -zipf
//	lsmingest -strategy validation -backend=disk -dir /data/ingest
//
// With -backend=disk the store runs on real files under -dir (a temp
// directory, removed on exit, when -dir is empty): batched appends, fsync
// on WAL commit and component install, and a manifest that lets the same
// directory be reopened later. On that backend the simulated-time row
// reflects CPU charges only; wall time is the honest hardware figure.
//
// The store is always embedded; to load a served store over the network,
// use the benchmark in bench/ (README "Measuring").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/cmd/internal/backendflag"
	"repro/internal/workload"
	"repro/lsmstore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lsmingest:", err)
		os.Exit(1)
	}
}

func run() error {
	strategy := flag.String("strategy", "eager", "eager | validation | mutable-bitmap | deleted-key")
	ops := flag.Int("ops", 50_000, "number of upsert operations")
	updateRatio := flag.Float64("update-ratio", 0.1, "fraction of upserts hitting past keys")
	zipf := flag.Bool("zipf", false, "Zipf(0.99) update distribution instead of uniform")
	secondaries := flag.Int("secondaries", 1, "number of secondary indexes")
	device := flag.String("device", "hdd", "hdd | ssd")
	mergeRepair := flag.Bool("merge-repair", false, "repair secondary indexes during merges (validation)")
	seed := flag.Int64("seed", 42, "workload seed")
	backend := flag.String("backend", "sim", "storage backend: sim | disk")
	dir := flag.String("dir", "", "data directory for -backend=disk (default: a temp dir, removed on exit)")
	flag.Parse()

	opts := lsmstore.Options{
		FilterExtract: workload.CreationOf,
		MemoryBudget:  512 << 10,
		CacheBytes:    4 << 20,
		PageSize:      32 << 10,
		MergeRepair:   *mergeRepair,
		Seed:          *seed,
	}
	switch strings.ToLower(*strategy) {
	case "eager":
		opts.Strategy = lsmstore.Eager
	case "validation":
		opts.Strategy = lsmstore.Validation
	case "mutable-bitmap":
		opts.Strategy = lsmstore.MutableBitmap
	case "deleted-key":
		opts.Strategy = lsmstore.DeletedKey
	default:
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	if strings.ToLower(*device) == "ssd" {
		opts.Device = lsmstore.SSD
	}
	be, resolvedDir, cleanup, err := backendflag.Resolve(*backend, *dir)
	if err != nil {
		return err
	}
	defer cleanup()
	tempDir := be == lsmstore.FileBackend && *dir == ""
	opts.Backend = be
	opts.Dir = resolvedDir
	for i := 0; i < *secondaries; i++ {
		opts.Secondaries = append(opts.Secondaries, lsmstore.SecondaryIndex{
			Name:    fmt.Sprintf("user%d", i),
			Extract: workload.UserIDOf,
		})
	}
	db, err := lsmstore.Open(opts)
	if err != nil {
		return err
	}
	defer db.Close()

	wcfg := workload.DefaultConfig(*seed)
	wcfg.UpdateRatio = *updateRatio
	wcfg.ZipfUpdates = *zipf
	gen := workload.NewGenerator(wcfg)
	start := time.Now()
	for i := 0; i < *ops; i++ {
		op := gen.Next()
		if err := db.Upsert(op.Tweet.PK(), op.Tweet.Encode()); err != nil {
			return err
		}
	}
	wall := time.Since(start)
	st := db.Stats()
	fmt.Printf("strategy            %s\n", *strategy)
	fmt.Printf("backend             %s\n", opts.Backend)
	if opts.Backend == lsmstore.FileBackend {
		note := ""
		if tempDir {
			note = " (temporary, removed on exit)"
		}
		fmt.Printf("data directory      %s%s\n", opts.Dir, note)
	}
	fmt.Printf("operations          %d (ignored %d)\n", st.Ingested, st.Ignored)
	fmt.Printf("simulated time      %s\n", st.SimulatedTime)
	fmt.Printf("wall time           %s (%.0f ops/s real)\n", wall.Round(time.Millisecond), float64(*ops)/wall.Seconds())
	fmt.Printf("primary components  %d\n", st.PrimaryComponents)
	fmt.Printf("disk bytes written  %d\n", st.DiskBytesWritten)
	fmt.Printf("page reads          random=%d sequential=%d\n", st.Counters.RandomReads, st.Counters.SequentialReads)
	fmt.Printf("cache               hits=%d misses=%d\n", st.Counters.CacheHits, st.Counters.CacheMisses)
	fmt.Printf("bloom tests         %d (negative %d)\n", st.Counters.BloomTests, st.Counters.BloomNegatives)
	// The deferred Close is only the error-path cleanup; on the disk
	// backend a failed final sync must fail the run, so close explicitly
	// (Close is idempotent).
	return db.Close()
}
