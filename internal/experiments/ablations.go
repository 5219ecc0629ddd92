// Ablation experiments beyond the paper's own figures: this
// reproduction's design-choice ablations (merge policy, WAL — core.Config
// settings, see README "Maintenance: one flush pipeline").
package experiments

import (
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/lsm"
	"repro/internal/workload"
)

func init() {
	register("abA-policy", ablationPolicy)
	register("abB-wal", ablationWAL)
}

// ablationPolicy — merge-policy ablation: the paper runs every experiment
// under tiering (ratio 1.2); this compares tiering, leveling, and no-merge
// on upsert ingestion and on cold point-query cost — the write/read
// trade-off the two policies embody (Section 2.1).
func ablationPolicy(s Scale) (*Result, error) {
	res := &Result{Figure: "abA-policy", Title: "Ablation: merge policy (tiering vs leveling vs none)"}
	policies := []struct {
		name string
		set  func(*dsConfig)
	}{
		{"tiering(1.2)", func(c *dsConfig) {}},
		{"leveling(4)", func(c *dsConfig) { c.policy = &lsm.Leveling{SizeRatio: 4} }},
		{"no-merge", func(c *dsConfig) { c.noPolicy = true }},
	}
	for _, p := range policies {
		c := s.newConfig()
		c.strategy = core.Validation
		p.set(&c)
		ds, env, _, err := build(s, c)
		if err != nil {
			return nil, err
		}
		wcfg := workload.DefaultConfig(41)
		wcfg.MessageMin, wcfg.MessageMax = s.MsgMin, s.MsgMax
		wcfg.UserIDRange = s.UserRange
		wcfg.UpdateRatio = 0.10
		gen := workload.NewGenerator(wcfg)
		marks, err := ingest(ds, env, gen, s.IngestOps)
		if err != nil {
			return nil, err
		}
		res.Add(p.name, "ingest-kops", throughput(s.IngestOps, marks[3]), "")
		res.Add(p.name, "components", float64(ds.Primary().NumDiskComponents()), "")

		// Cold point-query cost: 200 gets of existing keys.
		ds.Config().Store.Cache().Reset()
		start := env.Clock.Now()
		for i := 0; i < 200; i++ {
			pk := gen.PastKey((i * 131) % gen.NumPast())
			if _, err := ds.Primary().Get(kv.EncodeUint64(pk), nil); err != nil {
				return nil, err
			}
		}
		res.Add(p.name, "200-gets", (env.Clock.Now() - start).Seconds(), "s")
	}
	return res, nil
}

// ablationWAL — logging overhead: identical ingestion with and without the
// write-ahead log, isolating the per-operation group-commit cost.
func ablationWAL(s Scale) (*Result, error) {
	res := &Result{Figure: "abB-wal", Title: "Ablation: WAL overhead on ingestion"}
	for _, wal := range []bool{true, false} {
		c := s.newConfig()
		c.strategy = core.Validation
		c.disableWAL = !wal
		ds, env, _, err := build(s, c)
		if err != nil {
			return nil, err
		}
		wcfg := workload.DefaultConfig(43)
		wcfg.MessageMin, wcfg.MessageMax = s.MsgMin, s.MsgMax
		wcfg.UserIDRange = s.UserRange
		wcfg.UpdateRatio = 0.10
		gen := workload.NewGenerator(wcfg)
		marks, err := ingest(ds, env, gen, s.IngestOps)
		if err != nil {
			return nil, err
		}
		name := "wal"
		if !wal {
			name = "no-wal"
		}
		res.Add(name, "total", marks[3].Minutes(), "min")
		res.Add(name, "kops", throughput(s.IngestOps, marks[3]), "")
	}
	return res, nil
}
