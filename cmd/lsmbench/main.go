// Command lsmbench regenerates the paper's evaluation figures (Section 6)
// and benchmarks this repository's extensions.
//
// Usage:
//
//	lsmbench -figure fig14           # one figure
//	lsmbench -figure all             # every figure
//	lsmbench -figure fig12b -quick   # reduced scale
//	lsmbench -list                   # list figure IDs
//
// Output rows mirror the series the paper plots; times are virtual
// (cost-model) seconds on the simulated device except Figure 23, which
// reports wall time. The sharded ingest sweep on files is the root
// package's BenchmarkShardedIngest.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	figure := flag.String("figure", "all", "figure ID to run (see -list), or 'all'")
	quick := flag.Bool("quick", false, "run at reduced scale")
	list := flag.Bool("list", false, "list available figure IDs")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
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
