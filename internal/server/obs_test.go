package server_test

import (
	"fmt"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/lsmclient"
	"repro/lsmstore"
)

// doRequests drives a representative op mix (8 upserts, 1 get, 1 secondary
// query) through the wire path so every latency class has observations,
// and returns once the server has recorded all ten.
func doRequests(t *testing.T, srv *server.Server) {
	t.Helper()
	c := dial(t, srv)
	for i := uint64(0); i < 8; i++ {
		pk, rec := tweet(i)
		if err := c.Upsert(pk, rec); err != nil {
			t.Fatal(err)
		}
	}
	pk, _ := tweet(3)
	if _, found, err := c.Get(pk); err != nil || !found {
		t.Fatalf("get: found=%v err=%v", found, err)
	}
	if _, err := c.SecondaryQuery("user", nil, nil, lsmstore.QueryOptions{
		Validation: lsmstore.TimestampValidation,
	}); err != nil {
		t.Fatal(err)
	}
	// The write loop records a request after its response reaches the
	// socket (so the write stage is real), which lets a client hold its
	// reply before its own request is counted. The write stage is the last
	// histogram a record touches.
	if reg := srv.Observability(); reg != nil {
		waitFor(t, "10 recorded requests", func() bool {
			return reg.StageSnapshots()["write"].Count >= 10
		})
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestObservabilityHistograms(t *testing.T) {
	srv, _ := startServer(t, storeOptions(), func(cfg *server.Config) {
		cfg.HTTPAddr = "127.0.0.1:0"
	})
	doRequests(t, srv)

	ops := srv.Observability().OpSnapshots()
	if ops["upsert"].Count != 8 {
		t.Fatalf("upsert count = %d, want 8 (%v)", ops["upsert"].Count, ops)
	}
	if ops["get"].Count != 1 || ops["secondary_query"].Count != 1 {
		t.Fatalf("op snapshots = %v", ops)
	}
	if s := ops["upsert"]; s.SumNanos <= 0 || s.MaxNanos <= 0 {
		t.Fatalf("upsert histogram has no time: %+v", s)
	}

	stages := srv.Observability().StageSnapshots()
	total := int64(10) // 8 upserts + 1 get + 1 query
	for _, st := range []string{"decode", "engine", "encode", "write"} {
		if stages[st].Count != total {
			t.Fatalf("stage %q count = %d, want %d (%v)", st, stages[st].Count, total, stages)
		}
	}
	// The retired coalesce-wait stage records nothing: single writes run
	// on their handler worker.
	if got := stages["coalesce_wait"].Count; got != 0 {
		t.Fatalf("coalesce_wait count = %d, want 0", got)
	}

	// The /stats payload carries the digests; the buckets are on /metrics.
	var payload server.StatsPayload
	getJSON(t, "http://"+srv.HTTPAddr().String()+"/stats", &payload)
	if payload.Latency["upsert"].Count != 8 || payload.Latency["upsert"].MaxMicros < 0 {
		t.Fatalf("/stats latency = %+v", payload.Latency)
	}
	if payload.Stages["engine"].Count != total {
		t.Fatalf("/stats stages = %+v", payload.Stages)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := startServer(t, storeOptions(), func(cfg *server.Config) {
		cfg.HTTPAddr = "127.0.0.1:0"
	})
	doRequests(t, srv)

	resp, raw := httpGet(t, "http://"+srv.HTTPAddr().String()+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE lsm_requests_total counter",
		"# TYPE lsm_request_duration_seconds histogram",
		`lsm_request_duration_seconds_bucket{op="upsert",le="+Inf"} 8`,
		`lsm_request_duration_seconds_count{op="get"} 1`,
		`lsm_request_stage_duration_seconds_bucket{stage="engine",le="+Inf"} 10`,
		"lsm_engine_ingested_total 8",
		"lsm_maintenance_flushes_total",
		"lsm_active_connections",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestDebugSlowEndpoint(t *testing.T) {
	srv, _ := startServer(t, storeOptions(), func(cfg *server.Config) {
		cfg.HTTPAddr = "127.0.0.1:0"
		cfg.SlowRequestThreshold = time.Nanosecond // everything is slow
	})
	doRequests(t, srv)
	// The slow ring is filled after the histograms.
	waitFor(t, "10 slow entries", func() bool { return srv.SlowLog().Total() >= 10 })

	var p struct {
		ThresholdMillis int64 `json:"threshold_ms"`
		Total           int64 `json:"total"`
		Entries         []struct {
			Op          string `json:"op"`
			TotalMicros int64  `json:"total_us"`
		} `json:"entries"`
	}
	getJSON(t, "http://"+srv.HTTPAddr().String()+"/debug/slow", &p)
	if p.Total != 10 {
		t.Fatalf("slow total = %d, want 10", p.Total)
	}
	if len(p.Entries) != 10 { // all fit the 128-entry ring; obs' slowlog_test.go covers overflow
		t.Fatalf("slow entries = %d, want 10", len(p.Entries))
	}
	for _, e := range p.Entries {
		if e.Op == "" || e.TotalMicros < 0 {
			t.Fatalf("bad slow entry: %+v", e)
		}
	}
	// /metrics counts slow requests from the same log.
	if body := scrape(t, srv); !strings.Contains(body, "\nlsm_slow_requests_total 10\n") {
		t.Fatalf("/metrics does not serve the slow log's total of 10:\n%s", body)
	}
}

// TestStagesAddUpToTotal pins that the server's per-stage breakdown never
// claims more time than the request took, and that everything the server
// did before handing a response to its writer fits inside the round trip
// the client measured. The part of the total no stage claims is the
// hand-off from the reader to a handler worker, which serveRequest's first
// lap drops.
//
// The whole total is not held to the client's round trip: the server stamps
// it once its write syscall returns, and on loopback that syscall wakes the
// client, so under CPU contention most requests are stamped after the
// client already has the reply (medians 28µs server against 20µs client
// were seen with the rest of the suite running alongside).
func TestStagesAddUpToTotal(t *testing.T) {
	srv, _ := startServer(t, storeOptions(), func(cfg *server.Config) {
		cfg.HTTPAddr = "127.0.0.1:0"
		cfg.SlowRequestThreshold = time.Nanosecond // every request is logged
	})
	c := dial(t, srv)
	const n = 16
	var (
		clientOps []string
		clientRTT []int64 // µs
	)
	timed := func(op string, call func() error) {
		t.Helper()
		start := time.Now()
		if err := call(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		clientRTT = append(clientRTT, time.Since(start).Microseconds())
		clientOps = append(clientOps, op)
	}
	for i := uint64(0); i < n; i++ {
		pk, rec := tweet(i)
		timed("upsert", func() error { return c.Upsert(pk, rec) })
	}
	for i := uint64(0); i < n; i++ {
		pk, _ := tweet(i)
		timed("get", func() error { _, _, err := c.Get(pk); return err })
	}
	timed("secondary_query", func() error {
		_, err := c.SecondaryQuery("user", nil, nil, lsmstore.QueryOptions{
			Validation: lsmstore.TimestampValidation,
		})
		return err
	})
	const requests = 2*n + 1
	// A request is logged after its response reaches the socket, so the
	// client can be ahead of the log.
	waitFor(t, "every request in the slow log", func() bool { return srv.SlowLog().Total() >= requests })

	var p struct {
		Entries []obs.SlowEntry `json:"entries"`
	}
	getJSON(t, "http://"+srv.HTTPAddr().String()+"/debug/slow", &p)
	if len(p.Entries) != requests {
		t.Fatalf("slow entries = %d, want %d", len(p.Entries), requests)
	}
	var clientTotal, serverTotal, staged int64 // µs
	crossed := 0
	// One connection, one request at a time: the log's order is the
	// client's order.
	for i, e := range p.Entries {
		if e.Op != clientOps[i] {
			t.Fatalf("slow entry %d is a %s, but the client's request %d was a %s", i, e.Op, i, clientOps[i])
		}
		// Each stage is floored to µs on its own, so their sum is at most
		// the floored total.
		sum := e.DecodeMicros + e.EngineMicros + e.EncodeMicros + e.WriteMicros
		if sum > e.TotalMicros {
			t.Errorf("%s request %d: stages sum to %dµs > total %dµs (%+v)", e.Op, e.ReqID, sum, e.TotalMicros, e)
		}
		// Total minus write is the moment the response went to the writer,
		// which precedes the client's receipt; +1µs covers the two floors.
		if handed := e.TotalMicros - e.WriteMicros; handed > clientRTT[i]+1 {
			t.Errorf("%s request %d: handed to the writer after %dµs, beyond the client's %dµs round trip", e.Op, e.ReqID, handed, clientRTT[i])
		}
		if e.TotalMicros > clientRTT[i] {
			crossed++
		}
		clientTotal += clientRTT[i]
		serverTotal += e.TotalMicros
		staged += sum
	}
	t.Logf("%d requests (%d server totals above their round trip): client %dµs, server %dµs, staged %dµs, unattributed (hand-off, µs flooring) %dµs (%.1fµs/request)",
		requests, crossed, clientTotal, serverTotal, staged, serverTotal-staged,
		float64(serverTotal-staged)/requests)
}

func TestDebugMaintenanceEndpoint(t *testing.T) {
	opts := storeOptions()
	opts.MaintenanceWorkers = 2
	opts.MemoryBudget = 16 << 10
	srv, _ := startServer(t, opts, func(cfg *server.Config) {
		cfg.HTTPAddr = "127.0.0.1:0"
	})
	c := dial(t, srv)
	for i := uint64(0); i < 400; i++ {
		pk, rec := tweet(i)
		if err := c.Upsert(pk, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	var p struct {
		Summary struct {
			Flushes    int64 `json:"flushes"`
			FlushNanos int64 `json:"flush_ns"`
			FlushBytes int64 `json:"flush_bytes"`
		} `json:"summary"`
		Pool struct {
			Workers int `json:"workers"`
		} `json:"pool"`
		Shards []struct {
			Shard int `json:"shard"`
		} `json:"shards"`
		Events []struct {
			Kind           string `json:"kind"`
			DurationMicros int64  `json:"duration_us"`
		} `json:"events"`
	}
	getJSON(t, "http://"+srv.HTTPAddr().String()+"/debug/maintenance", &p)
	if p.Summary.Flushes < 1 || p.Summary.FlushBytes <= 0 {
		t.Fatalf("maintenance summary = %+v", p.Summary)
	}
	if p.Pool.Workers != 2 {
		t.Fatalf("pool workers = %d, want 2", p.Pool.Workers)
	}
	if len(p.Shards) != 1 || p.Shards[0].Shard != 0 {
		t.Fatalf("shards = %+v", p.Shards)
	}
	if len(p.Events) == 0 || p.Events[0].Kind == "" {
		t.Fatalf("events = %+v", p.Events)
	}
}

func TestPprofEndpointOptIn(t *testing.T) {
	srv, _ := startServer(t, storeOptions(), func(cfg *server.Config) {
		cfg.HTTPAddr = "127.0.0.1:0"
		cfg.EnablePprof = true
	})
	base := "http://" + srv.HTTPAddr().String()
	resp, body := httpGet(t, base+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("/debug/pprof/cmdline = %d, %d bytes", resp.StatusCode, len(body))
	}

	// Off by default: the handler must not be registered.
	srv2, _ := startServer(t, storeOptions(), func(cfg *server.Config) {
		cfg.HTTPAddr = "127.0.0.1:0"
	})
	resp, _ = httpGet(t, "http://"+srv2.HTTPAddr().String()+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without opt-in = %d, want 404", resp.StatusCode)
	}
}

func TestDisableObservability(t *testing.T) {
	srv, _ := startServer(t, storeOptions(), func(cfg *server.Config) {
		cfg.HTTPAddr = "127.0.0.1:0"
		cfg.DisableObservability = true
	})
	doRequests(t, srv)
	if srv.Observability() != nil || srv.SlowLog() != nil {
		t.Fatal("observability not disabled")
	}
	base := "http://" + srv.HTTPAddr().String()
	var payload server.StatsPayload
	getJSON(t, base+"/stats", &payload)
	if payload.Latency != nil || payload.Stages != nil {
		t.Fatalf("/stats carries histograms while disabled: %+v", payload.Latency)
	}
	// Counters still serve.
	body := scrape(t, srv)
	if !strings.Contains(body, "lsm_requests_total") {
		t.Fatal("/metrics lost counters while observability disabled")
	}
	if strings.Contains(body, "lsm_request_duration_seconds") {
		t.Fatal("/metrics serves request histograms while disabled")
	}
}

// TestObsOverheadAllocations is TestObsOverheadSmoke's count-based twin: a
// GET and an UPSERT round trip allocate the same with observability on and
// off, so tracing a request adds no allocation to it. Allocation counts
// repeat where timings do not, so unlike the timing gate this one does not
// fail an unchanged tree on a busy machine. Under -race the counts are only
// logged: sync.Pool then drops Puts at random.
func TestObsOverheadAllocations(t *testing.T) {
	measure := func(disable bool) (get, upsert float64) {
		opts := storeOptions()
		opts.MemoryBudget = 64 << 20 // no flush inside the measured round trips
		srv, _ := startServer(t, opts, func(cfg *server.Config) {
			cfg.DisableObservability = disable
		})
		c := dial(t, srv)
		pk, rec := tweet(1)
		upsertOnce := func() {
			if err := c.Upsert(pk, rec); err != nil {
				t.Fatal(err)
			}
		}
		getOnce := func() {
			if _, found, err := c.Get(pk); err != nil || !found {
				t.Fatalf("get: found=%v err=%v", found, err)
			}
		}
		upsertOnce() // warms the pools, the workers and the memtable
		getOnce()
		return testing.AllocsPerRun(200, getOnce), testing.AllocsPerRun(200, upsertOnce)
	}
	onGet, onUpsert := measure(false)
	offGet, offUpsert := measure(true)
	t.Logf("GET %v allocations traced, %v untraced; UPSERT %v traced, %v untraced", onGet, offGet, onUpsert, offUpsert)
	if !raceEnabled && (onGet != offGet || onUpsert != offUpsert) {
		t.Fatalf("observability changes a round trip's allocations: GET %v vs %v, UPSERT %v vs %v", onGet, offGet, onUpsert, offUpsert)
	}
}

// TestObsOverheadSmoke proves the tracing pipeline costs at most ~5%
// throughput: the same GET workload runs against a traced and an untraced
// server in six paired rounds, and the median of the rounds' traced to
// untraced throughput ratios must reach 0.95. Both servers are up and
// loaded before anything is timed, and each round times both sides back to
// back, the side that goes first flipping every round, so neither side is
// timed on a warmer or a quieter machine than the other; a pause that hits
// one round moves one ratio, which the median ignores. Gated behind LSMSTORE_BENCH_SMOKE=1 — it is a
// timing assertion, meaningful only on a quiet machine (CI runs it as a
// dedicated step).
func TestObsOverheadSmoke(t *testing.T) {
	if os.Getenv("LSMSTORE_BENCH_SMOKE") == "" {
		t.Skip("set LSMSTORE_BENCH_SMOKE=1 to run the overhead smoke test")
	}
	const (
		keys    = 1024
		ops     = 30000
		workers = 4
		rounds  = 6 // pairs
	)
	serve := func(disable bool) []*lsmclient.Client {
		srv, _ := startServer(t, storeOptions(), func(cfg *server.Config) {
			cfg.DisableObservability = disable
		})
		cs := []*lsmclient.Client{dial(t, srv), dial(t, srv)}
		for i := uint64(0); i < keys; i++ {
			pk, rec := tweet(i)
			if err := cs[0].Upsert(pk, rec); err != nil {
				t.Fatal(err)
			}
		}
		return cs
	}
	round := func(cs []*lsmclient.Client) float64 {
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := cs[w%len(cs)]
				for i := 0; i < ops/workers; i++ {
					pk, _ := tweet(uint64((i*workers + w) % keys))
					if _, _, err := c.Get(pk); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		return float64(ops) / time.Since(start).Seconds()
	}
	clients := [2][]*lsmclient.Client{serve(false), serve(true)} // traced, untraced
	var ratios [rounds]float64
	for r := range ratios {
		var opsPerSec [2]float64
		for i := range clients {
			side := (i + r) % 2 // traced first on even rounds, untraced first on odd
			opsPerSec[side] = round(clients[side])
		}
		ratios[r] = opsPerSec[0] / opsPerSec[1]
	}
	slices.Sort(ratios[:])
	ratio := (ratios[rounds/2-1] + ratios[rounds/2]) / 2
	t.Logf("traced/untraced throughput per round %.3f, median %.3f", ratios, ratio)
	if ratio < 0.95 {
		t.Fatalf("observability costs %.1f%% throughput, budget is 5%%", (1-ratio)*100)
	}
	if _, err := fmt.Println("OBS_OVERHEAD_RATIO", ratio); err != nil {
		t.Fatal(err)
	}
}
