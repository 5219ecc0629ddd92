package experiments

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/workload"
)

// TestPIDChangesNoCounterOnFig12a pins pID's no-op on fig12a's dataset (the
// blocked-Bloom one, Quick scale): turning PropagateIDs on under the
// batch/sLookup/bBF plan changes no counter — Bloom tests, point lookups,
// pages read — and no virtual time, over every selectivity and predicate
// the figure measures. View.Lookup probes components newest to oldest and
// stops at a key's first hit, and a secondary entry's version lives in a
// component no older than the entry's, so pruning strictly older
// components never skips a probe.
func TestPIDChangesNoCounterOnFig12a(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fig12a's dataset")
	}
	s := Quick()
	ds, env, err := queryDataset(s, true, false)
	if err != nil {
		t.Fatal(err)
	}
	si := ds.Secondary("user0")
	var plans []query.LookupConfig
	for _, st := range stacks(16 << 20) {
		if st.name == "batch/sLookup/bBF" || st.name == "batch/sLookup/bBF/pID" {
			plans = append(plans, st.cfg)
		}
	}
	if len(plans) != 2 || plans[0].PropagateIDs || !plans[1].PropagateIDs {
		t.Fatalf("setup: fig12's bBF and pID plans are %+v", plans)
	}
	run := func(cfg query.LookupConfig) (metrics.Snapshot, int64, int) {
		ds.Config().Store.Cache().Reset()
		before, start := env.Counters.Snapshot(), env.Clock.Now()
		records := 0
		for _, sel := range fig12aSels {
			for anchor := range 4 { // avgQuery's warm-up and its three runs
				lo, hi := selRange(s, sel, anchor)
				res, err := query.SecondaryRange(ds, si, workload.UserKey(lo), workload.UserKey(hi),
					query.SecondaryQueryOptions{Validation: query.NoValidation, Lookup: cfg})
				if err != nil {
					t.Fatal(err)
				}
				records += len(res.Records)
			}
		}
		d := env.Counters.Snapshot().Sub(before)
		// Whether a miss lands in a new or a recycled frame is the frame
		// pool's history, not the plan's.
		d.FrameAllocs, d.FrameReuses = 0, 0
		return d, int64(env.Clock.Now() - start), records
	}
	bbf, bbfNanos, bbfRecords := run(plans[0])
	pid, pidNanos, pidRecords := run(plans[1])
	if bbf.PointLookups == 0 || bbf.BloomTests == 0 || bbf.RandomReads == 0 || bbfRecords == 0 {
		t.Fatalf("setup: the bBF plan measured nothing: %+v, %d records", bbf, bbfRecords)
	}
	if pid != bbf || pidNanos != bbfNanos || pidRecords != bbfRecords {
		t.Fatalf("pID moved fig12a's bBF plan:\n bBF %+v, %d ns, %d records\n pID %+v, %d ns, %d records",
			bbf, bbfNanos, bbfRecords, pid, pidNanos, pidRecords)
	}
	t.Logf("both plans: %d point lookups, %d Bloom tests, %d random and %d sequential page reads, %d records",
		bbf.PointLookups, bbf.BloomTests, bbf.RandomReads, bbf.SequentialReads, bbfRecords)
}
