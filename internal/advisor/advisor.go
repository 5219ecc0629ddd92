// Package advisor implements the paper's third future-work direction
// (Section 7): "since no strategy was found to work best for all workloads,
// we plan to develop auto-tuning techniques so that the system could
// dynamically adopt the optimal maintenance strategies for a given
// workload."
//
// The advisor is measurement-driven: given a workload profile, it replays a
// scaled probe of that workload under each candidate strategy on the
// simulated engine, charges everything to the virtual clock, and recommends
// the strategy with the lowest combined cost. This mirrors how the paper
// itself compares strategies (Section 6), just automated and miniaturized.
package advisor

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/lsm"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Profile describes the workload to tune for.
type Profile struct {
	// UpdateRatio is the fraction of writes hitting existing keys.
	UpdateRatio float64
	// QueriesPerKiloWrites is how many secondary-index queries arrive per
	// 1000 writes.
	QueriesPerKiloWrites float64
	// IndexOnlyFraction is the fraction of those queries that are
	// index-only.
	IndexOnlyFraction float64
	// FilterScansPerKiloWrites is how many range-filter scans (half of
	// them over old data) arrive per 1000 writes.
	FilterScansPerKiloWrites float64
	// QuerySelectivity is the secondary queries' selectivity (fraction).
	QuerySelectivity float64
	// NumSecondaries is the number of secondary indexes.
	NumSecondaries int
	// RecordBytes is the typical record size.
	RecordBytes int
}

// DefaultProfile is a balanced starting point.
func DefaultProfile() Profile {
	return Profile{
		UpdateRatio:              0.1,
		QueriesPerKiloWrites:     5,
		IndexOnlyFraction:        0.2,
		FilterScansPerKiloWrites: 1,
		QuerySelectivity:         0.001,
		NumSecondaries:           1,
		RecordBytes:              500,
	}
}

// Estimate is one strategy's probe measurement.
type Estimate struct {
	Strategy core.Strategy
	// IngestTime, QueryTime, ScanTime are virtual costs of the probe's
	// write, secondary-query and filter-scan phases.
	IngestTime time.Duration
	QueryTime  time.Duration
	ScanTime   time.Duration
}

// Total is the combined probe cost.
func (e Estimate) Total() time.Duration { return e.IngestTime + e.QueryTime + e.ScanTime }

// Report holds all probe measurements, best first.
type Report struct {
	Estimates []Estimate
}

// String renders the report.
func (r Report) String() string {
	out := ""
	for _, e := range r.Estimates {
		out += fmt.Sprintf("%-16s total=%-12v ingest=%-12v query=%-12v scan=%v\n",
			e.Strategy, e.Total(), e.IngestTime, e.QueryTime, e.ScanTime)
	}
	return out
}

// probe scale: large enough that datasets outgrow the probe cache, small
// enough that a recommendation takes well under a second of real time.
const (
	probeWrites   = 8000
	probePageSize = 8 << 10
	probeCache    = 1 << 20
	probeBudget   = 96 << 10
)

// Recommend replays the profile under every applicable strategy and
// returns the cheapest, with the full report.
func Recommend(p Profile) (core.Strategy, Report, error) {
	if p.NumSecondaries < 1 {
		p.NumSecondaries = 1
	}
	candidates := []core.Strategy{core.Eager, core.Validation, core.MutableBitmap, core.DeletedKey}
	var report Report
	for _, s := range candidates {
		est, err := probeStrategy(s, p)
		if err != nil {
			return 0, Report{}, err
		}
		report.Estimates = append(report.Estimates, est)
	}
	sort.Slice(report.Estimates, func(i, j int) bool {
		return report.Estimates[i].Total() < report.Estimates[j].Total()
	})
	return report.Estimates[0].Strategy, report, nil
}

func probeStrategy(s core.Strategy, p Profile) (Estimate, error) {
	env := metrics.NewEnv()
	profile := storage.ScaledHDD(probePageSize)
	profile.ReadAheadPages = 8
	store := storage.NewStore(storage.NewDisk(profile), probeCache, env)
	cfg := core.Config{
		Store:         store,
		Strategy:      s,
		FilterExtract: workload.CreationOf,
		MemoryBudget:  probeBudget,
		UsePKIndex:    true,
		BloomFPR:      0.01,
		Policy:        lsm.NewTiering(0),
		MergeRepair:   s == core.Validation,
		DisableWAL:    true,
		Seed:          99,
	}
	for i := 0; i < p.NumSecondaries; i++ {
		cfg.Secondaries = append(cfg.Secondaries, core.SecondarySpec{
			Name:    fmt.Sprintf("user%d", i),
			Extract: workload.UserIDOf,
		})
	}
	ds, err := core.Open(cfg)
	if err != nil {
		return Estimate{}, err
	}

	msg := p.RecordBytes - 14
	if msg < 1 {
		msg = 1
	}
	wcfg := workload.DefaultConfig(7)
	wcfg.MessageMin, wcfg.MessageMax = msg, msg
	wcfg.UpdateRatio = p.UpdateRatio
	gen := workload.NewGenerator(wcfg)

	est := Estimate{Strategy: s}
	start := env.Clock.Now()
	for i := 0; i < probeWrites; i++ {
		op := gen.Next()
		if err := ds.Upsert(op.Tweet.PK(), op.Tweet.Encode()); err != nil {
			return Estimate{}, err
		}
	}
	est.IngestTime = env.Clock.Now() - start

	// Secondary queries with the strategy's natural validation method.
	method := query.Timestamp
	switch s {
	case core.Eager:
		method = query.NoValidation
	case core.DeletedKey:
		method = query.DeletedKeyCheck
	}
	nQueries := int(p.QueriesPerKiloWrites * probeWrites / 1000)
	width := int(p.QuerySelectivity * float64(wcfg.UserIDRange))
	if width < 1 {
		width = 1
	}
	si := ds.Secondaries()[0]
	start = env.Clock.Now()
	for q := 0; q < nQueries; q++ {
		lo := uint32((q * 17029) % (int(wcfg.UserIDRange) - width))
		indexOnly := float64(q%10)/10 < p.IndexOnlyFraction
		_, err := query.SecondaryRange(ds, si, workload.UserKey(lo), workload.UserKey(lo+uint32(width)-1),
			query.SecondaryQueryOptions{
				Validation: method,
				IndexOnly:  indexOnly && method != query.Direct,
				Lookup:     query.DefaultLookupConfig(),
			})
		if err != nil {
			return Estimate{}, err
		}
	}
	est.QueryTime = env.Clock.Now() - start

	// Filter scans, alternating recent and old windows.
	nScans := int(p.FilterScansPerKiloWrites * probeWrites / 1000)
	span := ds.CurrentTS()
	start = env.Clock.Now()
	for q := 0; q < nScans; q++ {
		w := span / 20
		var lo, hi int64
		if q%2 == 0 {
			lo, hi = span-w, span // recent
		} else {
			lo, hi = 0, w // old
		}
		if err := query.FilterScan(ds, lo, hi, func(kv.Entry) {}); err != nil {
			return Estimate{}, err
		}
	}
	est.ScanTime = env.Clock.Now() - start
	return est, nil
}
