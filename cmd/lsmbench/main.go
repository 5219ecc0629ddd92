// Command lsmbench regenerates the paper's evaluation figures (Section 6)
// and benchmarks this repository's extensions.
//
// Usage:
//
//	lsmbench -figure fig14           # one figure
//	lsmbench -figure all             # every figure
//	lsmbench -figure fig12b -quick   # reduced scale
//	lsmbench -list                   # list figure IDs
//	lsmbench -shardsweep 1,2,4,8     # sharded ingest throughput sweep
//	lsmbench -shardsweep 1,4 -n 200000
//	lsmbench -shardsweep 4 -async 2  # background maintenance (2 workers)
//	lsmbench -shardsweep 1,4 -backend=disk        # real files, real fsync
//	lsmbench -shardsweep 4 -backend=disk -dir /data/bench
//
// Output rows mirror the series the paper plots; times are virtual
// (cost-model) seconds except Figure 23, which reports wall time. The
// shard sweep ingests the same batch at each shard count and reports the
// simulated ingest time (max over shards) and throughput; with -async N
// the flush builds and merges run on N background workers and the sweep
// reports the ingest-lane time (what the write path experienced), the
// maintenance-lane time, and the backpressure stalls.
//
// With -backend=disk the sweep runs on the file backend (real files,
// batched appends, fsync on commit and install) under -dir — a fresh
// temporary directory, removed on exit, when -dir is empty. The Store
// charges the same device model on files as on the simulator, so the
// virtual-time columns print what -backend=sim prints; the wall-clock
// column is the separate, real measure of the files. The paper figures
// (-figure) always run on the simulated device, so -backend, -dir, -n and
// -async without -shardsweep are an error (exit status 2), not silently
// ignored.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/cmd/internal/backendflag"
	"repro/internal/experiments"
	"repro/internal/workload"
	"repro/lsmstore"
)

func main() {
	figure := flag.String("figure", "all", "figure ID to run (see -list), or 'all'")
	quick := flag.Bool("quick", false, "run at reduced scale")
	list := flag.Bool("list", false, "list available figure IDs")
	sweep := flag.String("shardsweep", "", "comma-separated shard counts: run the sharded ingest sweep instead of figures")
	nrecs := flag.Int("n", 100_000, "records to ingest per -shardsweep run")
	async := flag.Int("async", 0, "maintenance workers for -shardsweep (0 = jobs run on the submitting writer)")
	backendFlag := flag.String("backend", "sim", "storage backend for -shardsweep: sim | disk")
	dir := flag.String("dir", "", "data directory for -backend=disk (default: a temp dir, removed on exit)")
	flag.Parse()

	if *sweep == "" {
		var stray []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "backend", "dir", "n", "async":
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			fmt.Fprintf(os.Stderr, "lsmbench: without -shardsweep, %s would be ignored\n", strings.Join(stray, " and "))
			os.Exit(2)
		}
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *sweep != "" {
		backend, resolvedDir, cleanup, err := backendflag.Resolve(*backendFlag, *dir)
		if err == nil {
			err = runShardSweep(*sweep, *nrecs, *async, backend, resolvedDir)
		}
		cleanup()
		if err != nil {
			fmt.Fprintf(os.Stderr, "lsmbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	scale := experiments.Default()
	if *quick {
		scale = experiments.Quick()
	}
	ids := experiments.IDs()
	if *figure != "all" {
		ids = []string{*figure}
	}
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lsmbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		res.Print(os.Stdout)
		fmt.Printf("-- %s completed in %.1fs (real)\n\n", id, time.Since(start).Seconds())
	}
}

// runShardSweep ingests the same generated batch into fresh stores with
// each requested shard count and prints simulated time, throughput, and
// speedup relative to the first entry of the sweep. With async > 0,
// background maintenance runs on that many pool workers and the reported
// ingest time is the ingest lane's (the write path's) virtual time. On the
// disk backend each shard count runs in its own subdirectory of dir.
func runShardSweep(spec string, n, async int, backend lsmstore.Backend, dir string) error {
	var counts []int
	for _, f := range strings.Split(spec, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || c < 1 {
			return fmt.Errorf("bad shard count %q in -shardsweep", f)
		}
		counts = append(counts, c)
	}

	cfg := workload.DefaultConfig(3)
	cfg.UpdateRatio = 0.20
	cfg.ZipfUpdates = true
	gen := workload.NewGenerator(cfg)
	muts := make([]lsmstore.Mutation, n)
	for i := range muts {
		op := gen.Next()
		muts[i] = lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: op.Tweet.PK(), Record: op.Tweet.Encode()}
	}

	mode := "maintenance on the writers"
	if async > 0 {
		mode = fmt.Sprintf("background maintenance, %d workers", async)
	}
	where := "backend=sim"
	if backend == lsmstore.FileBackend {
		where = fmt.Sprintf("backend=disk dir=%s", dir)
	}
	fmt.Printf("# sharded ingest sweep: %d records (20%% Zipf updates), Validation strategy, %s, %s\n", n, mode, where)
	fmt.Printf("%-8s %14s %16s %10s %14s %8s\n", "shards", "ingest-time", "records/simsec", "speedup", "maint-time", "stalls")
	var base time.Duration
	for _, shards := range counts {
		runDir := ""
		if backend == lsmstore.FileBackend {
			// Each shard count is its own store; a shared directory would
			// (correctly) refuse to reopen under a different count. A
			// leftover run directory would be silently reopened and
			// ingested on top of, skewing the sweep — refuse it.
			runDir = filepath.Join(dir, fmt.Sprintf("run-%02d", shards))
			if _, err := os.Stat(runDir); err == nil {
				return fmt.Errorf("%s already holds a previous run; pass a fresh -dir or remove it", runDir)
			}
		}
		db, err := lsmstore.Open(lsmstore.Options{
			Strategy:           lsmstore.Validation,
			Secondaries:        []lsmstore.SecondaryIndex{{Name: "user", Extract: workload.UserIDOf}},
			FilterExtract:      workload.CreationOf,
			MemoryBudget:       1 << 20,
			CacheBytes:         16 << 20,
			PageSize:           8 << 10,
			Seed:               3,
			Shards:             shards,
			MaintenanceWorkers: async,
			Backend:            backend,
			Dir:                runDir,
		})
		if err != nil {
			return err
		}
		start := time.Now()
		if err := db.ApplyBatch(muts); err != nil {
			return err
		}
		// The ingest-lane reading is taken at the end of the write phase;
		// the final Flush drains background maintenance so every run ends
		// fully compacted.
		ingest, err := time.ParseDuration(db.Stats().IngestTime)
		if err != nil {
			return err
		}
		if err := db.Flush(); err != nil {
			return err
		}
		st := db.Stats()
		if err := db.Close(); err != nil {
			return err
		}
		if base == 0 {
			base = ingest
		}
		fmt.Printf("%-8d %14s %16.0f %9.2fx %14s %8d   (%.1fs real)\n",
			shards, ingest, float64(n)/ingest.Seconds(), float64(base)/float64(ingest),
			st.MaintenanceTime, st.Counters.WriteStalls, time.Since(start).Seconds())
	}
	return nil
}
