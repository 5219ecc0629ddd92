// Command lsmserver serves an lsmstore over TCP with the repository's wire
// protocol, turning the embedded engine into a networked system. It opens
// (or reopens) a store in -dir, declares the tweet-workload
// schema — a "user" secondary index and a creation-time range filter — and
// serves GET, UPSERT, INSERT, DELETE, APPLY_BATCH, SECONDARY_QUERY,
// FILTER_SCAN, STATS, FLUSH and PING with pipelined, out-of-order responses.
// Without -dir the store lives in a temp dir removed on exit. Concurrent
// single writes share WAL fsyncs through the engine's group commit.
//
// The HTTP sidecar serves /healthz, /stats (JSON incl. latency digests),
// /metrics (Prometheus text format), /debug/slow (slow-request ring),
// /debug/maintenance (flush/merge journal) and, with -pprof, net/http/pprof.
//
// Overload protection is opt-in: -admission-budget bounds weighted
// in-flight work (excess queues briefly, then sheds with OVERLOADED).
// Flushes and merges run in the background as the merge policy picks them;
// nothing throttles them.
//
// Usage:
//
//	lsmserver -addr 127.0.0.1:4150 -http 127.0.0.1:9650 -shards 4 -maint-workers 2
//	lsmserver -dir /data/store    # durable, reopenable
//
// SIGINT/SIGTERM drain gracefully: in-flight requests finish, then the
// store closes: its final manifests persist, and a temp dir is removed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
	"repro/lsmstore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lsmserver:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:4150", "TCP listen address for the wire protocol")
	httpAddr := flag.String("http", "127.0.0.1:9650", "HTTP sidecar address for /healthz, /stats, /metrics and /debug/* (empty disables)")
	dir := flag.String("dir", "", "data directory (default: a temp dir, removed on exit)")
	strategy := flag.String("strategy", "validation", "eager | validation | mutable-bitmap | deleted-key")
	shards := flag.Int("shards", 1, "hash partitions")
	maintWorkers := flag.Int("maint-workers", 2, "maintenance workers (0 = jobs run on the submitting writer)")
	memBudget := flag.Int("memory-budget", 4<<20, "per-partition memory component budget in bytes")
	cacheBytes := flag.Int64("cache", 64<<20, "buffer cache bytes (split across shards)")
	readCache := flag.Int64("read-cache", 8<<20, "hot-entry read cache bytes in front of the engine (0 = off)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget before connections are cut")
	seed := flag.Int64("seed", 42, "engine seed")
	pprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the HTTP sidecar")
	slowThreshold := flag.Duration("slow-threshold", 0, "slow-request log threshold (0 = 100ms default; negative disables)")
	noObs := flag.Bool("no-obs", false, "disable latency histograms, stage tracing and the slow-request log")
	admBudget := flag.Int64("admission-budget", 0, "weighted in-flight admission budget (0 = admission control off)")
	admQueue := flag.Int("admission-queue", 0, "admission wait-queue depth (0 = 2x budget; negative disables queueing)")
	flag.Parse()

	opts := lsmstore.Options{
		Secondaries:        []lsmstore.SecondaryIndex{{Name: "user", Extract: workload.UserIDOf}},
		FilterExtract:      workload.CreationOf,
		MemoryBudget:       *memBudget,
		CacheBytes:         *cacheBytes,
		ReadCache:          lsmstore.ReadCacheOptions{Bytes: *readCache},
		Shards:             *shards,
		MaintenanceWorkers: *maintWorkers,
		Seed:               *seed,
		Dir:                *dir,
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
	db, err := lsmstore.Open(opts)
	if err != nil {
		return err
	}
	defer db.Close()

	srv, err := server.New(server.Config{
		DB:       db,
		Addr:     *addr,
		HTTPAddr: *httpAddr,

		EnablePprof:          *pprof,
		SlowRequestThreshold: *slowThreshold,
		DisableObservability: *noObs,

		AdmissionBudget: *admBudget,
		AdmissionQueue:  *admQueue,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	where := *dir
	if where == "" {
		where = "a temp dir removed on exit"
	}
	fmt.Printf("lsmserver: serving %s (strategy %s, %d shard(s)) on %s\n",
		where, strings.ToLower(*strategy), *shards, srv.Addr())
	if *admBudget > 0 {
		fmt.Printf("lsmserver: admission control on (budget %d, queue %d)\n", *admBudget, *admQueue)
	}
	if a := srv.HTTPAddr(); a != nil {
		fmt.Printf("lsmserver: /healthz /stats /metrics /debug/slow /debug/maintenance on http://%s\n", a)
		if *pprof {
			fmt.Printf("lsmserver: pprof on http://%s/debug/pprof/\n", a)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("lsmserver: %s — draining (budget %s)\n", got, *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "lsmserver: drain incomplete: %v\n", err)
	}
	// The deferred Close is only the error-path cleanup; a failed final
	// sync must fail the run, so close explicitly (Close is idempotent).
	if err := db.Close(); err != nil {
		return err
	}
	fmt.Println("lsmserver: closed cleanly")
	return nil
}
