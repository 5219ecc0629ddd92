// Package experiments reproduces every figure of the paper's evaluation
// (Section 6). Each runner builds the scaled-down analogue of the paper's
// setup (the substitutions are described in the internal/metrics and
// internal/storage package docs), drives the synthetic tweet workload, and
// reports the same series the paper plots, measured on the virtual
// cost-model clock (except Figure 23, which measures real wall time because
// lock contention is a real-CPU effect).
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Row is one data point: a series name, an x-axis label, and a value.
type Row struct {
	Series string
	X      string
	Value  float64
	Unit   string
}

// Result is one experiment's output.
type Result struct {
	Figure string
	Title  string
	Rows   []Row
}

// Add appends a row.
func (r *Result) Add(series, x string, value float64, unit string) {
	r.Rows = append(r.Rows, Row{Series: series, X: x, Value: value, Unit: unit})
}

// Print renders the result as an aligned table, series grouped.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.Figure, r.Title)
	series := make([]string, 0)
	seen := map[string]bool{}
	for _, row := range r.Rows {
		if !seen[row.Series] {
			seen[row.Series] = true
			series = append(series, row.Series)
		}
	}
	for _, s := range series {
		fmt.Fprintf(w, "%-28s", s)
		for _, row := range r.Rows {
			if row.Series == s {
				fmt.Fprintf(w, "  %s=%.4g%s", row.X, row.Value, row.Unit)
			}
		}
		fmt.Fprintln(w)
	}
}

// Scale holds the scaled-down experiment knobs. The paper's absolute sizes
// (80-100 M records, 30 GB, 128 MB budgets, 2 GB caches) shrink by a
// common factor so every effect regime is preserved: dataset >> cache,
// multiple components per level, pk index smaller than cache.
type Scale struct {
	// QueryRecords is the dataset size for query experiments (paper: 80M).
	QueryRecords int
	// IngestOps is the operation count for ingestion experiments.
	IngestOps int
	// RepairChunk and RepairChunks drive Figures 20-22 (paper: 10 chunks
	// of 10M records).
	RepairChunk, RepairChunks int
	// MsgMin/MsgMax bound tweet message sizes (450-550 in the paper).
	MsgMin, MsgMax int
	// UserRange bounds user ids (100K in the paper).
	UserRange uint32
	// PageSize is the device page size.
	PageSize int
	// CacheBytes is the buffer cache size.
	CacheBytes int64
	// MemoryBudget is the per-dataset memory-component budget.
	MemoryBudget int
	// MaxMergeable caps mergeable component size (paper: 1 GB).
	MaxMergeable int64
}

// Default returns the standard scaled configuration: ~25 MB datasets, 4 MB
// cache, 512 KB memory budget, 4 MB component cap — every ratio from the
// paper's setup (dataset/cache ≈ 8x, budget/dataset ≈ 2%) is preserved.
func Default() Scale {
	return Scale{
		QueryRecords: 50_000,
		IngestOps:    40_000,
		RepairChunk:  8_000,
		RepairChunks: 5,
		MsgMin:       450,
		MsgMax:       550,
		UserRange:    100_000,
		PageSize:     32 << 10,
		CacheBytes:   4 << 20,
		MemoryBudget: 512 << 10,
		MaxMergeable: 4 << 20,
	}
}

// Quick returns a reduced configuration for tests.
func Quick() Scale {
	s := Default()
	s.QueryRecords = 12_000
	s.IngestOps = 10_000
	s.RepairChunk = 3_000
	s.RepairChunks = 3
	s.CacheBytes = 3 << 20
	s.MemoryBudget = 128 << 10
	s.MaxMergeable = 1 << 20
	return s
}

// Runner is one experiment.
type Runner func(Scale) (*Result, error)

// Registry maps figure IDs to runners.
var Registry = map[string]Runner{}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func register(id string, r Runner) { Registry[id] = r }

// Run executes one experiment by ID.
func Run(id string, s Scale) (*Result, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	return r(s)
}

// dsConfig bundles the dataset construction knobs one experiment varies.
type dsConfig struct {
	strategy      core.Strategy
	cc            core.CCMethod
	device        storage.Profile
	cacheBytes    int64
	usePKIndex    bool
	numSecondary  int
	mergeRepair   bool
	correlated    bool
	repairBloom   bool
	noPolicy      bool
	policy        lsm.Policy // overrides the default tiering policy
	maxMergeable  int64
	memoryBudget  int
	noRangeFilter bool
}

func (s Scale) newConfig() dsConfig {
	device := storage.ScaledHDD(s.PageSize)
	// The paper's 4 MB read-ahead assumes the 2 GB cache can hold one
	// window per component; scale the window down with the cache so a
	// multi-component merge scan does not thrash (the read-ahead rule is in
	// the internal/storage package doc).
	device.ReadAheadPages = 8
	return dsConfig{
		strategy:     core.Eager,
		device:       device,
		cacheBytes:   s.CacheBytes,
		usePKIndex:   true,
		numSecondary: 1,
		maxMergeable: s.MaxMergeable,
		memoryBudget: s.MemoryBudget,
	}
}

// build opens a dataset per the config. Every secondary index beyond the
// first indexes the same user id (the paper's Figure 15b/22 setup simply
// adds more indexes to maintain).
func build(s Scale, c dsConfig) (*core.Dataset, *metrics.Env, *storage.Store, error) {
	env := metrics.NewEnv()
	disk := storage.NewDisk(c.device)
	store := storage.NewStore(disk, c.cacheBytes, env)
	cfg := core.Config{
		Store:            store,
		Strategy:         c.strategy,
		CC:               c.cc,
		MemoryBudget:     c.memoryBudget,
		UsePKIndex:       c.usePKIndex,
		CorrelatedMerges: c.correlated,
		MergeRepair:      c.mergeRepair,
		RepairBloomOpt:   c.repairBloom,
		BloomFPR:         0.01,
		Seed:             42,
	}
	if !c.noRangeFilter {
		cfg.FilterExtract = workload.CreationOf
	}
	switch {
	case c.policy != nil:
		cfg.Policy = c.policy
	case !c.noPolicy:
		cfg.Policy = lsm.NewTiering(c.maxMergeable)
	}
	for i := 0; i < c.numSecondary; i++ {
		cfg.Secondaries = append(cfg.Secondaries, core.SecondarySpec{
			Name:    fmt.Sprintf("user%d", i),
			Extract: workload.UserIDOf,
		})
	}
	ds, err := core.Open(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return ds, env, store, nil
}

// ingest drives n generator operations as upserts, returning virtual time
// checkpoints at each quarter.
func ingest(ds *core.Dataset, env *metrics.Env, gen *workload.Generator, n int) ([4]time.Duration, error) {
	var marks [4]time.Duration
	for i := 0; i < n; i++ {
		op := gen.Next()
		if err := ds.Upsert(op.Tweet.PK(), op.Tweet.Encode()); err != nil {
			return marks, err
		}
		for q := 0; q < 4; q++ {
			if i+1 == (q+1)*n/4 {
				marks[q] = env.Clock.Now()
			}
		}
	}
	return marks, nil
}

// insertAll drives n generator operations as inserts (Figure 13's
// uniqueness-checked path).
func insertAll(ds *core.Dataset, env *metrics.Env, gen *workload.Generator, n int) ([4]time.Duration, error) {
	var marks [4]time.Duration
	for i := 0; i < n; i++ {
		op := gen.Next()
		if _, err := ds.Insert(op.Tweet.PK(), op.Tweet.Encode()); err != nil {
			return marks, err
		}
		for q := 0; q < 4; q++ {
			if i+1 == (q+1)*n/4 {
				marks[q] = env.Clock.Now()
			}
		}
	}
	return marks, nil
}

// throughput converts (ops, duration) to kilo-ops per simulated second.
func throughput(ops int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds() / 1000
}
