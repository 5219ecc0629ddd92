// Command lsmquery loads a tweet dataset and answers ad-hoc secondary-index
// and range-filter queries against it, printing per-query virtual times and
// I/O counters — a small interactive analogue of the paper's Section 6.4.
//
// Usage:
//
//	lsmquery -records 30000 -strategy validation -user-lo 100 -user-hi 200
//	lsmquery -records 30000 -filter-lo 25000 -filter-hi 30000
//
// The store is always embedded and simulated; queries against a served
// store are measured by the benchmark in bench/ (README "Measuring").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/workload"
	"repro/lsmstore"
)

func main() {
	records := flag.Int("records", 30_000, "records to ingest before querying")
	strategy := flag.String("strategy", "eager", "eager | validation | mutable-bitmap")
	updateRatio := flag.Float64("update-ratio", 0.1, "update ratio during load")
	validation := flag.String("validation", "auto", "auto | none | direct | ts")
	indexOnly := flag.Bool("index-only", false, "index-only query (no record fetch)")
	userLo := flag.Uint("user-lo", 0, "secondary query: lowest user id")
	userHi := flag.Uint("user-hi", 0, "secondary query: highest user id (0 disables)")
	filterLo := flag.Int64("filter-lo", -1, "filter scan: lowest creation time (-1 disables)")
	filterHi := flag.Int64("filter-hi", -1, "filter scan: highest creation time")
	seed := flag.Int64("seed", 42, "workload seed")
	flag.Parse()

	opts := lsmstore.Options{
		Secondaries:   []lsmstore.SecondaryIndex{{Name: "user", Extract: workload.UserIDOf}},
		FilterExtract: workload.CreationOf,
		MemoryBudget:  512 << 10,
		CacheBytes:    4 << 20,
		PageSize:      32 << 10,
		Seed:          *seed,
	}
	method := lsmstore.NoValidation
	switch strings.ToLower(*strategy) {
	case "eager":
		opts.Strategy = lsmstore.Eager
	case "validation":
		opts.Strategy = lsmstore.Validation
		method = lsmstore.TimestampValidation
	case "mutable-bitmap":
		opts.Strategy = lsmstore.MutableBitmap
		method = lsmstore.TimestampValidation
	default:
		fmt.Fprintf(os.Stderr, "lsmquery: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}
	switch strings.ToLower(*validation) {
	case "auto":
	case "none":
		method = lsmstore.NoValidation
	case "direct":
		method = lsmstore.DirectValidation
	case "ts":
		method = lsmstore.TimestampValidation
	default:
		fmt.Fprintf(os.Stderr, "lsmquery: unknown validation %q\n", *validation)
		os.Exit(2)
	}

	db, err := lsmstore.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmquery:", err)
		os.Exit(1)
	}
	wcfg := workload.DefaultConfig(*seed)
	wcfg.UpdateRatio = *updateRatio
	gen := workload.NewGenerator(wcfg)
	for i := 0; i < *records; i++ {
		op := gen.Next()
		if err := db.Upsert(op.Tweet.PK(), op.Tweet.Encode()); err != nil {
			fmt.Fprintln(os.Stderr, "lsmquery:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("loaded %d operations, simulated load time %s\n", *records, db.Stats().SimulatedTime)

	if *userHi > 0 {
		before := db.Env().Clock.Now()
		res, err := db.SecondaryQuery("user",
			workload.UserKey(uint32(*userLo)), workload.UserKey(uint32(*userHi)),
			lsmstore.QueryOptions{Validation: method, IndexOnly: *indexOnly})
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsmquery:", err)
			os.Exit(1)
		}
		n := len(res.Records) + len(res.Keys)
		fmt.Printf("secondary query user=[%d,%d] validation=%v index-only=%v: %d results in %s (virtual)\n",
			*userLo, *userHi, method, *indexOnly, n, db.Env().Clock.Now()-before)
	}
	if *filterLo >= 0 {
		before := db.Env().Clock.Now()
		count := 0
		if err := db.FilterScan(*filterLo, *filterHi, func(pk, rec []byte) { count++ }); err != nil {
			fmt.Fprintln(os.Stderr, "lsmquery:", err)
			os.Exit(1)
		}
		fmt.Printf("filter scan [%d,%d]: %d records in %s (virtual)\n",
			*filterLo, *filterHi, count, db.Env().Clock.Now()-before)
	}
}
