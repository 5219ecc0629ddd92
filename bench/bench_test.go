package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/lsmstore"
)

func testParams(t *testing.T, spec *workloadSpec) params {
	dir := t.TempDir()
	return params{spec: spec, seed: 7, seconds: 15, scale: 0.01, root: dir, traceDir: filepath.Join(dir, "out")}
}

// TestWorkloadsEmitEveryMetric runs all four workloads and their traced
// runs at 1/100 scale: every reply must match the model, every metric must
// be emitted and finite, and every end-to-end metric non-zero.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		t.Run(spec.name, func(t *testing.T) {
			p := testParams(t, spec)
			for _, run := range []struct {
				kind    string
				measure func(params) (*outcome, error)
				defs    []metricDef
				nonZero bool
			}{{"end-to-end", endToEnd, endToEndMetrics, true}, {"traced", traced, perLayer, false}} {
				out, err := run.measure(p)
				if err != nil {
					t.Fatalf("%s run: %v", run.kind, err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("%s run: %d of %d requests failed", run.kind, out.Failed, out.Attempted)
				}
				if len(out.Metrics) != len(run.defs) {
					t.Errorf("%s run: %d metrics, want %d", run.kind, len(out.Metrics), len(run.defs))
				}
				for _, d := range run.defs {
					m, ok := out.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("%s is missing", d.name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.name, m.Value)
					case run.nonZero && m.Value == 0:
						t.Errorf("%s is zero", d.name)
					case m.Unit != d.unit:
						t.Errorf("%s has unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
				for _, d := range unboundedMetrics {
					if v := out.Unbounded[d.name].Value; run.nonZero && !(v > 0 && !math.IsInf(v, 0)) {
						t.Errorf("%s = %v", d.name, v)
					}
				}
			}
			if _, err := os.Stat(filepath.Join(p.traceDir, "trace-"+spec.name+".json")); err != nil {
				t.Errorf("span file: %v", err)
			}
			if left, _ := filepath.Glob(filepath.Join(p.root, "*-*")); len(left) > 0 {
				t.Errorf("store directories left behind: %v", left)
			}
		})
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json and the metric and
// workload tables together.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type listed struct{ Name, Unit string }
	var doc struct {
		Workloads []listed
		EndToEnd  []listed `json:"end_to_end"`
		PerLayer  []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, defined as %q", i, w.Name, workloads[i].name)
		}
	}
	for _, pair := range []struct {
		listed []listed
		defs   []metricDef
	}{{doc.EndToEnd, endToEndMetrics}, {doc.PerLayer, perLayer}} {
		if len(pair.listed) != len(pair.defs) {
			t.Fatalf("%d metrics listed, %d defined", len(pair.listed), len(pair.defs))
		}
		for i, l := range pair.listed {
			if d := pair.defs[i]; l.Name != d.name || l.Unit != d.unit {
				t.Errorf("metric %d is %s [%s], defined as %s [%s]", i, l.Name, l.Unit, d.name, d.unit)
			}
		}
	}
}

// TestGeneratorAllocatesLessThanOnePerOp keeps the generator and reply
// checker out of allocs_per_op.
func TestGeneratorAllocatesLessThanOnePerOp(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		const n = 2000
		c, target := generatorClient(spec, 7, n+1)
		if allocs := testing.AllocsPerRun(n, func() { c.do(target) }); allocs >= 1 {
			t.Errorf("%s: generator allocates %.2f objects per request", spec.name, allocs)
		}
	}
}

// hashTarget folds every request it is sent into a hash.
type hashTarget struct {
	*nullTarget
	sum uint64
}

func (h *hashTarget) fold(parts ...[]byte) {
	f := fnv.New64a()
	for _, p := range parts {
		f.Write(p)
	}
	h.sum = h.sum*31 + f.Sum64()
}

func (h *hashTarget) Get(pk []byte) ([]byte, bool, error) { h.fold(pk); return nil, false, nil }
func (h *hashTarget) Upsert(pk, rec []byte) error         { h.fold(pk, rec); return nil }
func (h *hashTarget) ApplyBatch(muts []lsmstore.Mutation) ([]bool, error) {
	for _, m := range muts {
		h.fold(m.PK, m.Record)
	}
	return h.applied, nil
}
func (h *hashTarget) SecondaryQuery(_ string, lo, hi []byte, _ lsmstore.QueryOptions) (*lsmstore.QueryResult, error) {
	h.fold(lo, hi)
	return h.empty, nil
}

// TestStreamIsAFunctionOfSeedAndClient checks that a seed fixes the
// request stream and that the two clients never share a key.
func TestStreamIsAFunctionOfSeedAndClient(t *testing.T) {
	stream := func(spec *workloadSpec, seed uint64) uint64 {
		c, null := generatorClient(spec, seed, 500)
		h := &hashTarget{nullTarget: null}
		for i := 0; i < 500; i++ {
			c.do(h)
		}
		return h.sum
	}
	for i := range workloads {
		spec := &workloads[i]
		if stream(spec, 3) != stream(spec, 3) {
			t.Errorf("%s: the same seed gave two different streams", spec.name)
		}
		if stream(spec, 3) == stream(spec, 4) {
			t.Errorf("%s: two seeds gave the same stream", spec.name)
		}
	}
	seen := map[uint64]int{}
	for c := 0; c < nClients; c++ {
		for i := 0; i < 10_000; i++ {
			id := keyID(3, c, i)
			if prev, dup := seen[id]; dup {
				t.Fatalf("clients %d and %d share key %x", prev, c, id)
			}
			seen[id] = c
		}
	}
}

func TestInterquartileMatchesPython(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4)[2] - [0].
	for _, c := range []struct {
		sorted []float64
		want   float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5},
		{[]float64{1, 2}, 1.5},
		{[]float64{1, 1, 2, 3, 3, 4, 5, 5, 6, 9}, 3.5},
	} {
		if got := interquartile(c.sorted); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("interquartile(%v) = %v, want %v", c.sorted, got, c.want)
		}
	}
}
