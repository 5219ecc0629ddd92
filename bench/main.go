// Command bench is the repository's benchmark: four fixed-count workloads
// against the served store, every reply checked against a model, and a
// separate traced run for the per-layer numbers. README.md describes the
// configuration, the workloads and every metric.
//
//	bash bench/run.sh --workload get-hot --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --reps 10            # every workload, spread per metric
//
// A single run prints a table and, as its last line, one JSON object with
// the keys correct, attempted, failed and metrics. An untraced run prints
// its unbounded timing figures as a JSON line of their own just before.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// buildDir is where run.sh puts the binary; store directories live (and
// die) there too. It is relative to the checkout root, where run.sh
// starts the benchmark.
const buildDir = ".bench_build"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same requests")
	seconds := flag.Int("seconds", 15, "sizes the measured phase: it issues the workload's requests-per-second constant times this many requests")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	reps := flag.Int("reps", 1, "runs per workload, on seeds seed, seed+1, ...; prints the spread of every metric")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *reps < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("bad arguments; see -help")
	}
	if *name == "all" || *reps > 1 {
		return repeat(*name, *seed, *seconds, *trace, *reps)
	}
	spec, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	p := params{spec: spec, seed: uint64(*seed), seconds: *seconds, scale: 1, root: buildDir, traceDir: "bench/out"}
	defs, measure := endToEndMetrics, endToEnd
	if *trace == 1 {
		defs, measure = perLayer, traced
	}
	out, err := measure(p)
	if err != nil {
		return err
	}
	fmt.Printf("%s seed %d: %d requests attempted, %d failed\n", spec.name, *seed, out.Attempted, out.Failed)
	for _, d := range defs {
		fmt.Printf("%-16s %-36s %16.4f %s\n", spec.name, d.name, out.Metrics[d.name].Value, d.unit)
	}
	if *trace == 0 {
		for _, d := range unboundedMetrics {
			fmt.Printf("%-16s %-36s %16.4f %s (no bound)\n", spec.name, d.name, out.Unbounded[d.name].Value, d.unit)
		}
		if err := printJSON(map[string]any{"unbounded": out.Unbounded}); err != nil {
			return err
		}
	}
	return printJSON(out)
}

func printJSON(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// repeat runs each workload reps times, every run a fresh process of this
// binary exactly as a single run is, and prints per workload and metric
// the median, the extremes and two spreads: (max − min) ÷ median, and the
// distance between the quartiles ÷ median.
func repeat(name string, seed int64, seconds, trace, reps int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	specs := workloads
	if name != "all" {
		spec, err := findWorkload(name)
		if err != nil {
			return err
		}
		specs = []workloadSpec{*spec}
	}
	defs := slices.Concat(endToEndMetrics, unboundedMetrics)
	if trace == 1 {
		defs = perLayer
	}
	type summary struct {
		Unit     string    `json:"unit"`
		Values   []float64 `json:"values"`
		Median   float64   `json:"median"`
		Min      float64   `json:"min"`
		Max      float64   `json:"max"`
		Range    float64   `json:"range_over_median"`
		Quartile float64   `json:"iqr_over_median"`
	}
	doc := map[string]map[string]*summary{}
	attempted, failed := 0, 0
	for _, spec := range specs {
		byMetric := map[string]*summary{}
		doc[spec.name] = byMetric
		for rep := 0; rep < reps; rep++ {
			cmd := exec.Command(self, "-workload", spec.name, "-seed", strconv.FormatInt(seed+int64(rep), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s rep %d: %w", spec.name, rep, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var out outcome
			if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
				return fmt.Errorf("%s rep %d: %w", spec.name, rep, err)
			}
			if trace == 0 {
				var extra struct{ Unbounded map[string]metric }
				if err := json.Unmarshal(lines[len(lines)-2], &extra); err != nil {
					return fmt.Errorf("%s rep %d: %w", spec.name, rep, err)
				}
				maps.Copy(out.Metrics, extra.Unbounded)
			}
			attempted += out.Attempted
			failed += out.Failed
			for _, d := range defs {
				s := byMetric[d.name]
				if s == nil {
					s = &summary{Unit: d.unit}
					byMetric[d.name] = s
				}
				s.Values = append(s.Values, out.Metrics[d.name].Value)
			}
		}
		fmt.Printf("%-16s %-36s %-7s %14s %14s %14s %9s %9s\n", "workload", "metric", "unit", "median", "min", "max", "range/med", "iqr/med")
		for _, d := range defs {
			s := byMetric[d.name]
			sorted := slices.Sorted(slices.Values(s.Values))
			s.Median, s.Min, s.Max = median(sorted), sorted[0], sorted[len(sorted)-1]
			if s.Median != 0 {
				s.Range = (s.Max - s.Min) / s.Median
				s.Quartile = interquartile(sorted) / s.Median
			}
			fmt.Printf("%-16s %-36s %-7s %14.4f %14.4f %14.4f %9.4f %9.4f\n", spec.name, d.name, d.unit, s.Median, s.Min, s.Max, s.Range, s.Quartile)
		}
	}
	if err := printJSON(map[string]any{"reps": reps, "seed": seed, "seconds": seconds, "attempted": attempted, "failed": failed, "workloads": doc}); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d requests failed", failed, attempted)
	}
	return nil
}

func median(sorted []float64) float64 {
	n := len(sorted)
	return (sorted[(n-1)/2] + sorted[n/2]) / 2
}

// interquartile is the distance between the first and third quartile as
// Python's statistics.quantiles(values, n=4) places them, which is how the
// benchmark's bounds are checked.
func interquartile(sorted []float64) float64 {
	n := len(sorted)
	if n < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return quartile(3) - quartile(1)
}
