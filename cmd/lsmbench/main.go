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
//	lsmbench -shardsweep 4 -dir /data/bench
//
// Output rows mirror the series the paper plots; times are virtual
// (cost-model) seconds except Figure 23, which reports wall time. The
// shard sweep ingests the same batch at each shard count and reports the
// total memory budget, the simulated ingest time (max over shards) and
// throughput; with -async N the builds and merges run on N workers and it
// adds the ingest- and maintenance-lane times and the backpressure stalls.
//
// The sweep runs lsmstore, on files (batched appends, fsync on commit and
// install): each row's store in its own subdirectory of -dir, or, without
// -dir, in a temporary directory removed when the row's store closes. The
// Store charges the paper's device model to the virtual clocks on files as
// the simulator does, so the virtual-time columns are the figures'
// measure; the wall-clock column is the separate, real measure of the
// files. The paper figures (-figure) run on the simulated device, so -dir,
// -n and -async without -shardsweep are an error (exit status 2), not
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
	dir := flag.String("dir", "", "parent directory of the -shardsweep rows' stores (default: a temp dir per row, removed when it closes)")
	flag.Parse()

	if *sweep == "" {
		var stray []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "dir", "n", "async":
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
		if err := runShardSweep(*sweep, *nrecs, *async, *dir); err != nil {
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
// each requested shard count and prints the total memory budget, simulated
// time, throughput, and speedup relative to the first row. With async > 0,
// maintenance runs on that many pool workers and the ingest time is the
// ingest lane's (the write path's). Each row runs in its own subdirectory
// of dir, or in a temporary directory when dir is empty.
func runShardSweep(spec string, n, async int, dir string) error {
	var rows [][2]int // shard count, per-partition memory budget
	for _, f := range strings.Split(spec, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || c < 1 {
			return fmt.Errorf("bad shard count %q in -shardsweep", f)
		}
		// 1 MiB per partition, then a fixed 1 MiB total: partitioning apart from memory.
		rows = append(rows, [2]int{c, 1 << 20})
		if c > 1 {
			rows = append(rows, [2]int{c, 1 << 20 / c})
		}
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
	where := "a temp dir per row"
	if dir != "" {
		where = "dir=" + dir
	}
	fmt.Printf("# sharded ingest sweep: %d records (20%% Zipf updates), Validation strategy, %s, %s\n", n, mode, where)
	fmt.Printf("%-8s %10s %14s %16s %10s %14s %8s\n", "shards", "mem-total", "ingest-time", "records/simsec", "speedup", "maint-time", "stalls")
	var base time.Duration
	for _, r := range rows {
		shards, budget := r[0], r[1]
		runDir := ""
		if dir != "" {
			// Each row is its own store; a leftover run directory would be
			// reopened and ingested on top of, skewing the sweep — refuse it.
			runDir = filepath.Join(dir, fmt.Sprintf("run-%02d-%dk", shards, budget>>10))
			if _, err := os.Stat(runDir); err == nil {
				return fmt.Errorf("%s already holds a previous run; pass a fresh -dir or remove it", runDir)
			}
		}
		db, err := lsmstore.Open(lsmstore.Options{
			Strategy:           lsmstore.Validation,
			Secondaries:        []lsmstore.SecondaryIndex{{Name: "user", Extract: workload.UserIDOf}},
			FilterExtract:      workload.CreationOf,
			MemoryBudget:       budget,
			CacheBytes:         16 << 20,
			PageSize:           8 << 10,
			Seed:               3,
			Shards:             shards,
			MaintenanceWorkers: async,
			Dir:                runDir,
		})
		if err != nil {
			return err
		}
		start := time.Now()
		if err := db.ApplyBatch(muts); err != nil {
			db.Close()
			return err
		}
		// The ingest lane is read at the end of the write phase; the final
		// Flush drains maintenance so every run ends fully compacted.
		ingest, err := time.ParseDuration(db.Stats().IngestTime)
		if err != nil {
			db.Close()
			return err
		}
		if err := db.Flush(); err != nil {
			db.Close()
			return err
		}
		st := db.Stats()
		if err := db.Close(); err != nil {
			return err
		}
		if base == 0 {
			base = ingest
		}
		fmt.Printf("%-8d %7.2fMiB %14s %16.0f %9.2fx %14s %8d   (%.1fs real)\n",
			shards, float64(shards*budget)/(1<<20), ingest, float64(n)/ingest.Seconds(), float64(base)/float64(ingest),
			st.MaintenanceTime, st.Counters.WriteStalls, time.Since(start).Seconds())
	}
	return nil
}
