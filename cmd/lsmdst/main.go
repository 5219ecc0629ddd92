// Command lsmdst runs the deterministic simulation harness (internal/dst)
// against the LSM store: one seed, or a sweep of many, each driving a
// seeded workload with fault injection, process kills, and crash-image
// reopens, checked against an in-memory model.
//
// Run one seed (bit-reproducible under -profile seq):
//
//	lsmdst -seed 42 -ops 600 -fault-rate 1
//
// Sweep a seed range, or sweep randomly for a time budget:
//
//	lsmdst -seeds 0:500 -fault-rate 1
//	lsmdst -sweep 60s -fault-rate 1
//
// On failure the output leads with the exact repro invocation, then the
// minimized fault schedule and the tail of the op trace.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/dst"
)

func main() {
	var (
		seed      = flag.Int64("seed", -1, "run exactly this seed")
		seeds     = flag.String("seeds", "", "sweep an inclusive seed range lo:hi")
		sweep     = flag.Duration("sweep", 0, "sweep random seeds for this wall-clock budget")
		ops       = flag.Int("ops", 400, "workload-operation budget per run")
		faultRate = flag.Float64("fault-rate", 1, "fault-injection rate multiplier (0 disables)")
		killAfter = flag.Int64("kill-after", 0, "kill the device at this traced op of the first session (0 = seeded)")
		profile   = flag.String("profile", "seq", "determinism profile: seq (bit-reproducible) or conc")
		bug       = flag.String("bug", "", "re-arm a bug: "+strings.Join(dst.Bugs, ", "))
		traceOut  = flag.Bool("trace", false, "print the full op trace of a single-seed run")
		minimize  = flag.Bool("minimize", true, "minimize the fault schedule of a failing run")
		dir       = flag.String("dir", "", "scratch directory (default: a temp dir, removed on success)")
	)
	flag.Parse()

	prof, err := dst.ParseProfile(*profile)
	if err != nil {
		fatal(err)
	}
	if *bug != "" && !slices.Contains(dst.Bugs, *bug) {
		fatal(fmt.Errorf("unknown -bug %q (known: %s)", *bug, strings.Join(dst.Bugs, ", ")))
	}

	scratch := *dir
	cleanup := false
	if scratch == "" {
		scratch, err = os.MkdirTemp("", "lsmdst-*")
		if err != nil {
			fatal(err)
		}
		cleanup = true
	}

	cfg := dst.Config{
		Ops:       *ops,
		FaultRate: *faultRate,
		KillAfter: *killAfter,
		Profile:   prof,
		Bug:       *bug,
	}

	runOne := func(s int64, keepTrace bool) bool {
		c := cfg
		c.Seed = s
		c.RecordTrace = true
		c.Dir = fmt.Sprintf("%s/seed%d", scratch, s)
		if err := os.MkdirAll(c.Dir, 0o755); err != nil {
			fatal(err)
		}
		rep, rerr := dst.RunSeed(c, os.Stdout, *minimize, scratch)
		if rerr != nil {
			fatal(rerr)
		}
		if keepTrace && *traceOut {
			for _, ev := range rep.Trace {
				fmt.Println(ev)
			}
		}
		if !rep.Failed {
			_ = os.RemoveAll(c.Dir)
		}
		return !rep.Failed
	}

	okAll := true
	switch {
	case *seed >= 0:
		okAll = runOne(*seed, true)
	case *seeds != "":
		var lo, hi int64
		if _, err := fmt.Sscanf(strings.TrimSpace(*seeds), "%d:%d", &lo, &hi); err != nil || hi < lo {
			fatal(fmt.Errorf("bad -seeds %q, want lo:hi", *seeds))
		}
		for s := lo; s <= hi; s++ {
			if !runOne(s, false) {
				okAll = false
				break
			}
		}
	case *sweep > 0:
		// The only wall-clock use in the DST stack: bounding how long the
		// random sweep explores. Each individual run stays deterministic
		// in its seed.
		deadline := time.Now().Add(*sweep)
		src := rand.New(rand.NewSource(time.Now().UnixNano()))
		n := 0
		for time.Now().Before(deadline) {
			n++
			if !runOne(src.Int63n(1<<40), false) {
				okAll = false
				break
			}
		}
		fmt.Printf("sweep: %d seeds explored\n", n)
	default:
		flag.Usage()
		os.Exit(2)
	}

	if cleanup && okAll {
		_ = os.RemoveAll(scratch)
	}
	if !okAll {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsmdst:", err)
	os.Exit(1)
}
