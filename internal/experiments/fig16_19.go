package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/workload"
)

func init() {
	register("fig16", fig16)
	register("fig17", fig17)
	register("fig18", fig18)
	register("fig19", fig19)
}

// updDataset prepares a Figure 16/17/19 dataset by upserting QueryRecords
// operations at the given actual update ratio.
func updDataset(s Scale, mutate func(*dsConfig), updateRatio float64, seed int64) (*core.Dataset, *metrics.Env, error) {
	c := s.newConfig()
	if mutate != nil {
		mutate(&c)
	}
	ds, env, _, err := build(s, c)
	if err != nil {
		return nil, nil, err
	}
	wcfg := workload.DefaultConfig(seed)
	wcfg.MessageMin, wcfg.MessageMax = s.MsgMin, s.MsgMax
	wcfg.UserIDRange = s.UserRange
	wcfg.UpdateRatio = updateRatio
	gen := workload.NewGenerator(wcfg)
	if _, err := ingest(ds, env, gen, s.QueryRecords); err != nil {
		return nil, nil, err
	}
	return ds, env, nil
}

// fig16 — non-index-only secondary query performance: Eager vs the two
// validation methods, with and without merge repair, at 0% and 50% updates.
func fig16(s Scale) (*Result, error) {
	res := &Result{Figure: "fig16", Title: "Non-index-only query performance"}
	sels := []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.10}
	// Series run in declaration order: the queries of one variant share a
	// buffer cache, so the order is part of the measurement.
	type series struct {
		name   string
		method query.ValidationMethod
	}
	variants := []struct {
		mutate  func(*dsConfig)
		methods []series
	}{
		{func(c *dsConfig) { c.strategy = core.Eager },
			[]series{{"eager", query.NoValidation}}},
		{func(c *dsConfig) { c.strategy = core.Validation },
			[]series{{"direct (no repair)", query.Direct}, {"ts (no repair)", query.Timestamp}}},
		{func(c *dsConfig) { c.strategy = core.Validation; c.mergeRepair = true },
			[]series{{"direct", query.Direct}, {"ts", query.Timestamp}}},
	}
	for _, upd := range []float64{0, 0.5} {
		suffix := fmt.Sprintf(" u=%.0f%%", upd*100)
		for _, v := range variants {
			ds, env, err := updDataset(s, v.mutate, upd, 21)
			if err != nil {
				return nil, err
			}
			si := ds.Secondary("user0")
			for _, m := range v.methods {
				for _, sel := range sels {
					d, err := avgQuery(ds, env, si, s, sel, query.SecondaryQueryOptions{
						Validation: m.method,
						Lookup:     query.DefaultLookupConfig(),
					})
					if err != nil {
						return nil, err
					}
					res.Add(m.name+suffix, fmt.Sprintf("%.4g%%", sel*100), d.Seconds(), "s")
				}
			}
		}
	}
	return res, nil
}

// fig17 — index-only query performance: Eager vs Timestamp validation
// (with and without repair). Direct validation is omitted as in the paper
// (it must fetch records anyway).
func fig17(s Scale) (*Result, error) {
	res := &Result{Figure: "fig17", Title: "Index-only query performance"}
	sels := []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.10}
	variants := []struct {
		name   string
		mutate func(*dsConfig)
		method query.ValidationMethod
	}{
		{"eager", func(c *dsConfig) { c.strategy = core.Eager }, query.NoValidation},
		{"ts (no repair)", func(c *dsConfig) { c.strategy = core.Validation }, query.Timestamp},
		{"ts", func(c *dsConfig) { c.strategy = core.Validation; c.mergeRepair = true }, query.Timestamp},
	}
	for _, upd := range []float64{0, 0.5} {
		suffix := fmt.Sprintf(" u=%.0f%%", upd*100)
		for _, v := range variants {
			ds, env, err := updDataset(s, v.mutate, upd, 23)
			if err != nil {
				return nil, err
			}
			si := ds.Secondary("user0")
			for _, sel := range sels {
				d, err := avgQuery(ds, env, si, s, sel, query.SecondaryQueryOptions{
					Validation: v.method,
					IndexOnly:  true,
					Lookup:     query.DefaultLookupConfig(),
				})
				if err != nil {
					return nil, err
				}
				res.Add(v.name+suffix, fmt.Sprintf("%.4g%%", sel*100), d.Seconds(), "s")
			}
		}
	}
	return res, nil
}

// fig18 — Timestamp validation under a small buffer cache: the primary key
// index is small enough that even an 8x smaller cache barely hurts.
func fig18(s Scale) (*Result, error) {
	res := &Result{Figure: "fig18", Title: "Timestamp validation with small cache"}
	sels := []float64{0.0001, 0.001, 0.01, 0.10}
	for _, cache := range []struct {
		name  string
		bytes int64
	}{
		{"ts validation", s.CacheBytes},
		{"ts validation (small cache)", s.CacheBytes / 8},
	} {
		ds, env, err := updDataset(s, func(c *dsConfig) {
			c.strategy = core.Validation
			c.cacheBytes = cache.bytes
		}, 0, 25)
		if err != nil {
			return nil, err
		}
		si := ds.Secondary("user0")
		for _, sel := range sels {
			d, err := avgQuery(ds, env, si, s, sel, query.SecondaryQueryOptions{
				Validation: query.Timestamp,
				Lookup:     query.DefaultLookupConfig(),
			})
			if err != nil {
				return nil, err
			}
			res.Add(cache.name, fmt.Sprintf("%.4g%%", sel*100), d.Seconds(), "s")
		}
	}
	return res, nil
}

// fig19 — range-filter scan performance, recent vs old predicates, by
// strategy and update ratio. Creation time is a monotone counter spanning
// the whole ingestion (the paper's 2-year span); "N days" maps to the
// matching fraction of that span.
func fig19(s Scale) (*Result, error) {
	res := &Result{Figure: "fig19", Title: "Range filter scan performance (cold cache)"}
	days := []int{1, 7, 30, 180, 365}
	const spanDays = 730
	variants := []struct {
		name   string
		mutate func(*dsConfig)
	}{
		{"eager", func(c *dsConfig) { c.strategy = core.Eager }},
		{"validation", func(c *dsConfig) { c.strategy = core.Validation }},
		{"mutable-bitmap", func(c *dsConfig) { c.strategy = core.MutableBitmap; c.cc = core.SideFile }},
	}
	for _, panel := range []struct {
		name   string
		recent bool
		upd    float64
	}{
		{"recent+50%", true, 0.5},
		{"old+0%", false, 0},
		{"old+50%", false, 0.5},
	} {
		for _, v := range variants {
			ds, env, err := updDataset(s, v.mutate, panel.upd, 27)
			if err != nil {
				return nil, err
			}
			span := ds.CurrentTS()
			for _, d := range days {
				w := span * int64(d) / spanDays
				if w < 1 {
					w = 1
				}
				var lo, hi int64
				if panel.recent {
					lo, hi = span-w, span
				} else {
					lo, hi = 0, w
				}
				// Cold cache per run, as in the paper (5 runs, clean cache).
				dur, err := measureFilterScan(ds, env, lo, hi)
				if err != nil {
					return nil, err
				}
				res.Add(v.name+" / "+panel.name, fmt.Sprintf("%dd", d), dur.Seconds(), "s")
			}
		}
	}
	return res, nil
}

func measureFilterScan(ds *core.Dataset, env *metrics.Env, lo, hi int64) (time.Duration, error) {
	ds.Config().Store.Cache().Reset()
	start := env.Clock.Now()
	count := 0
	err := query.FilterScan(ds, lo, hi, func(e kv.Entry) { count++ })
	if err != nil {
		return 0, err
	}
	return env.Clock.Now() - start, nil
}
