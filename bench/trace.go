package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bloom"
	"repro/internal/kv"
	"repro/internal/memtable"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/readcache"
	"repro/internal/wire"
	"repro/lsmstore"
)

// The traced run replays the first quarter of the workload's request
// stream at three depths, each on a freshly set-up store, timing calls
// into public functions only:
//
//	a. the wire codec alone, on messages recorded from the stream;
//	b. the stream applied straight to lsmstore.DB;
//	c. the full stack through lsmclient, once with spans and once without
//	   (the pass without gives the stack.* metrics).
//
// Every request leaves a span; counters are read as before/after
// differences of the accessors the program already has.

const (
	traceFraction = 4   // the traced phases are 1/4 of the measured phase
	codecMessages = 128 // requests recorded for depth a
	codecPasses   = 64
	microKeys     = 20_000 // entries in the memtable/bloom/readcache/generator loops
)

// ratio is a/b, or 0 when the workload never exercised the denominator;
// per-layer counts may be 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func histMeanUS(h obs.HistSnapshot) float64 {
	return ratio(float64(h.SumNanos), float64(h.Count)) / 1e3
}

// recorder is a target that applies requests to the DB and keeps each
// request and reply as the wire messages the served path would carry.
type recorder struct {
	db    dbTarget
	reqs  []wire.Request
	resps []wire.Response
}

func (r *recorder) add(req wire.Request, resp wire.Response) {
	req.ID, resp.ID = uint64(len(r.reqs)+1), uint64(len(r.reqs)+1)
	r.reqs = append(r.reqs, req)
	r.resps = append(r.resps, resp)
}

func wireRecords(recs []lsmstore.Record) []wire.Record {
	out := make([]wire.Record, len(recs))
	for i, rec := range recs {
		out[i] = wire.Record{PK: rec.PK, Value: rec.Value}
	}
	return out
}

func (r *recorder) Get(pk []byte) ([]byte, bool, error) {
	val, found, err := r.db.Get(pk)
	r.add(wire.Request{Op: wire.OpGet, Key: bytes.Clone(pk)}, wire.Response{Kind: wire.KindValue, Found: found, Value: val})
	return val, found, err
}

func (r *recorder) Upsert(pk, record []byte) error {
	r.add(wire.Request{Op: wire.OpUpsert, Key: pk, Value: record}, wire.Response{Kind: wire.KindOK})
	return r.db.Upsert(pk, record)
}

func (r *recorder) ApplyBatch(muts []lsmstore.Mutation) ([]bool, error) {
	req := wire.Request{Op: wire.OpApplyBatch, Muts: make([]wire.Mutation, len(muts))}
	for i, m := range muts {
		req.Muts[i] = wire.Mutation{Op: wire.MutUpsert, PK: m.PK, Record: m.Record}
	}
	applied, err := r.db.ApplyBatch(muts)
	r.add(req, wire.Response{Kind: wire.KindBatch, AppliedBatch: applied})
	return applied, err
}

func (r *recorder) SecondaryQuery(index string, lo, hi []byte, opts lsmstore.QueryOptions) (*lsmstore.QueryResult, error) {
	res, err := r.db.SecondaryQuery(index, lo, hi, opts)
	if err != nil {
		return nil, err
	}
	r.add(wire.Request{Op: wire.OpSecondaryQuery, Index: index, Lo: bytes.Clone(lo), Hi: bytes.Clone(hi), Validation: uint8(opts.Validation)},
		wire.Response{Kind: wire.KindQuery, Records: wireRecords(res.Records)})
	return res, nil
}

func (r *recorder) FilterScan(lo, hi int64, limit int) ([]lsmstore.Record, error) {
	recs, err := r.db.FilterScan(lo, hi, limit)
	r.add(wire.Request{Op: wire.OpFilterScan, FilterLo: lo, FilterHi: hi, Limit: int64(limit)},
		wire.Response{Kind: wire.KindScan, Records: wireRecords(recs)})
	return recs, err
}

// codec times depth a: encode and decode of the recorded requests, then of
// the recorded replies, with the functions the client and server use.
func codec(rec *recorder, m map[string]float64) ([]span, error) {
	spans := []span{{Name: "wire", Parent: -1}}
	var frame []byte
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs0 := ms.Mallocs
	start := time.Now()
	for pass := 0; pass < codecPasses; pass++ {
		t0 := time.Since(start)
		for _, req := range rec.reqs {
			frame = wire.AppendRequest(frame[:0], req)
			if _, err := wire.DecodeRequestInPlace(frame); err != nil {
				return nil, err
			}
		}
		spans = append(spans, span{Name: "wire.req_codec", Start: int64(t0), End: int64(time.Since(start)), Parent: 0, Req: uint64(pass)})
	}
	reqTime := time.Since(start)
	for pass := 0; pass < codecPasses; pass++ {
		t0 := time.Since(start)
		for _, resp := range rec.resps {
			frame = wire.AppendResponse(frame[:0], resp)
			if _, err := wire.DecodeResponse(frame); err != nil {
				return nil, err
			}
		}
		spans = append(spans, span{Name: "wire.resp_codec", Start: int64(t0), End: int64(time.Since(start)), Parent: 0, Req: uint64(pass)})
	}
	total := time.Since(start)
	runtime.ReadMemStats(&ms)
	spans[0].End = int64(total)
	n := float64(codecPasses * len(rec.reqs))
	m["wire.req_codec_ns"] = float64(reqTime) / n
	m["wire.resp_codec_ns"] = float64(total-reqTime) / n
	m["wire.allocs_per_msg"] = float64(ms.Mallocs-allocs0) / (2 * n)
	return spans, nil
}

// micro times the single-structure layers a request crosses — memtable,
// Bloom filter, read cache — and the benchmark's own generator, on the
// workload's keys and records.
func micro(p params, m map[string]float64) {
	c := newClient(p.spec, p.seed, 0, microKeys, 0)
	c.freshBufs = true
	c.fillBatch(microKeys, 100)
	perOp := func(start time.Time) float64 { return float64(time.Since(start)) / microKeys }

	mt := memtable.New(int64(p.seed))
	start := time.Now()
	for i, mu := range c.muts {
		mt.Put(kv.Entry{Key: mu.PK, Value: mu.Record, TS: int64(i)})
	}
	m["memtable.put_ns"] = perOp(start)
	start = time.Now()
	for _, mu := range c.muts {
		mt.Get(mu.PK)
	}
	m["memtable.get_ns"] = perOp(start)

	// Half the probes are of keys the filter holds, half of absent keys,
	// the mix a point read sees across a shard's components.
	bf := bloom.NewV2FPR(microKeys/2, 0.01)
	for _, mu := range c.muts[:microKeys/2] {
		bf.Add(mu.PK)
	}
	start = time.Now()
	for _, mu := range c.muts {
		bf.MayContain(mu.PK)
	}
	m["bloom.may_contain_ns"] = perOp(start)

	rc := readcache.New(readcache.Options{Bytes: storeOptions("").ReadCache.Bytes})
	hot := c.muts[:8_000]
	for _, mu := range hot {
		_, _, tok := rc.Get(mu.PK)
		rc.Put(mu.PK, mu.Record, tok)
	}
	start = time.Now()
	for i := 0; i < microKeys; i++ {
		rc.Get(hot[i%len(hot)].PK)
	}
	m["readcache.get_ns"] = perOp(start)

	m["bench.generator_ns_per_op"] = generatorNanosPerOp(p.spec, p.seed, microKeys)
}

// nullTarget answers every request with an empty success, so a client
// driven against it runs the generator alone.
type nullTarget struct {
	applied []bool
	empty   *lsmstore.QueryResult
}

func (*nullTarget) Get([]byte) ([]byte, bool, error)                 { return nil, false, nil }
func (*nullTarget) Upsert(_, _ []byte) error                         { return nil }
func (t *nullTarget) ApplyBatch([]lsmstore.Mutation) ([]bool, error) { return t.applied, nil }
func (t *nullTarget) SecondaryQuery(string, []byte, []byte, lsmstore.QueryOptions) (*lsmstore.QueryResult, error) {
	return t.empty, nil
}
func (*nullTarget) FilterScan(int64, int64, int) ([]lsmstore.Record, error) { return nil, nil }

// generatorClient is a client with a small model already in place, ready
// to generate n of the workload's requests without a store.
func generatorClient(spec *workloadSpec, seed uint64, n int) (*client, *nullTarget) {
	keys := max(spec.hot/nClients, 1024)
	c := newClient(spec, seed, 0, keys+n*batchSize, spec.hot/nClients)
	c.last = c.last[:keys]
	return c, &nullTarget{applied: make([]bool, batchSize), empty: &lsmstore.QueryResult{}}
}

// generatorNanosPerOp times the generator and reply checker alone over n
// requests.
func generatorNanosPerOp(spec *workloadSpec, seed uint64, n int) float64 {
	c, t := generatorClient(spec, seed, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		c.do(t)
	}
	return float64(time.Since(start)) / float64(n)
}

// traced is the traced run. It returns the per-layer metrics and writes
// the spans to bench/out/trace-<workload>.json.
func traced(p params) (*outcome, error) {
	t := &traceRun{p: p, n: p.requests() / traceFraction, m: map[string]float64{}, spans: map[string][]span{}, out: &outcome{}}
	for _, depth := range []func(*served) error{t.embedded, t.servedWithSpans, t.servedPlain} {
		s, _, err := setUp(p)
		if err != nil {
			return nil, err
		}
		err = depth(s)
		s.tearDown()
		if err != nil {
			return nil, err
		}
	}
	micro(p, t.m)
	if err := writeSpans(p, t.spans); err != nil {
		return nil, err
	}
	t.out.Correct = t.out.Failed == 0
	t.out.Metrics = map[string]metric{}
	for _, d := range perLayer {
		v, ok := t.m[d.name]
		if !ok {
			return nil, fmt.Errorf("traced run did not produce %s", d.name)
		}
		t.out.Metrics[d.name] = metric{v, d.unit}
	}
	return t.out, nil
}

// traceRun is what the traced run's depths accumulate.
type traceRun struct {
	p      params
	n      int // requests per depth
	m      map[string]float64
	spans  map[string][]span
	out    *outcome
	traced *phase // depth c with spans, for bench.trace_overhead_frac
}

// embedded is depth b, then depth a on messages recorded from the same
// stream.
func (t *traceRun) embedded(s *served) error {
	targets := make([]target, len(s.clients))
	for i, c := range s.clients {
		c.freshBufs = true
		targets[i] = dbTarget{s.db}
	}
	b := runPhase(s.clients, targets, t.n, "lsmstore")
	t.out.count(b.attempted, b.failed)
	t.spans["b"] = b.spans
	for k := opKind(0); k < numKinds; k++ {
		t.m["lsmstore."+kindNames[k]+"_us"] = quantileUS(b.lat[k], 0.5)
	}
	t.m["lsmstore.cpu_us_per_op"] = ratio(float64(b.cpu.Microseconds()), float64(b.logical))
	t.m["lsmstore.allocs_per_op"] = ratio(float64(b.allocs), float64(b.logical))
	t.m["lsmstore.open_s"] = s.openS
	rec := &recorder{db: dbTarget{s.db}}
	for i := 0; i < codecMessages; i++ {
		s.clients[0].do(rec)
	}
	var err error
	t.spans["a"], err = codec(rec, t.m)
	return err
}

// servedWithSpans is depth c with spans, the counter differences around
// it, and the correctness checks.
func (t *traceRun) servedWithSpans(s *served) error {
	before := snapshot(s)
	userBefore := userBytes(s.clients)
	start := time.Now()
	c := runPhase(s.clients, s.targets(), t.n, "lsmclient")
	t.out.count(c.attempted, c.failed)
	t.spans["c"], t.traced = c.spans, c
	t.m["lsm.components_at_end"] = float64(s.db.Stats().PrimaryComponents)
	if err := quiesce(s.db); err != nil {
		return err
	}
	busyWall := time.Since(start)
	layerMetrics(t.p.spec, c, before, snapshot(s), float64(userBytes(s.clients)-userBefore), busyWall, t.m)
	check := newRNG(t.p.seed ^ 0xc0ffee)
	t.out.count(checkSampledQueries(s.conns[0], s.clients, &check))
	t.m["lsmstore.recover_s"] = 0
	if t.p.spec.main == opBatch {
		a, f, recoverTime, err := killAndReopen(s, t.p.root, &check)
		if err != nil {
			return err
		}
		t.out.count(a, f)
		t.m["lsmstore.recover_s"] = recoverTime.Seconds()
	}
	return nil
}

// servedPlain is depth c again without spans: it gives the stack.* metrics,
// and its difference from the pass with spans is what tracing costs.
func (t *traceRun) servedPlain(s *served) error {
	plain := runPhase(s.clients, s.targets(), t.n, "")
	t.out.count(plain.attempted, plain.failed)
	t.m["stack.live_heap_mib"] = liveHeapMiB()
	t.m["stack.ops_per_s"] = plain.opsPerSec()
	t.m["stack.main_p50_us"] = quantileUS(plain.lat[t.p.spec.main], 0.5)
	t.m["stack.cpu_us_per_op"] = ratio(float64(plain.cpu.Microseconds()), float64(plain.logical))
	t.m["bench.trace_overhead_frac"] = 1 - t.traced.opsPerSec()/plain.opsPerSec()
	return nil
}

// counters is the snapshot of every counter the traced run reads as a
// before/after difference.
type counters struct {
	engine  metrics.Snapshot
	journal obs.JournalSummary
	server  metrics.ServerSnapshot
	ops     map[string]obs.HistSnapshot
	stages  map[string]obs.HistSnapshot
}

func snapshot(s *served) counters {
	return counters{
		engine:  s.db.Stats().Counters,
		journal: s.db.MaintJournal().Summary(),
		server:  s.srv.Counters().Snapshot(),
		ops:     s.srv.Observability().OpSnapshots(),
		stages:  s.srv.Observability().StageSnapshots(),
	}
}

// layerMetrics turns depth c's observations and counter differences into
// the per-layer metrics of the served path.
func layerMetrics(spec *workloadSpec, ph *phase, before, after counters, userBytes float64, busyWall time.Duration, m map[string]float64) {
	main := ph.lat[spec.main]
	m["lsmclient.main_p90_us"] = quantileUS(main, 0.90)
	m["lsmclient.main_p99_us"] = quantileUS(main, 0.99)
	writes := ph.lat[opUpsert]
	if len(writes) == 0 {
		writes = ph.lat[opBatch]
	}
	m["lsmclient.write_p50_us"] = quantileUS(writes, 0.50)
	m["lsmclient.write_p99_us"] = quantileUS(writes, 0.99)

	var clientNanos int64
	for _, lat := range ph.lat {
		for _, v := range lat {
			clientNanos += v
		}
	}
	var serverOps obs.HistSnapshot
	for name, h := range after.ops {
		serverOps = serverOps.Add(h.Sub(before.ops[name]))
	}
	stage := func(st obs.Stage) float64 {
		return histMeanUS(after.stages[st.String()].Sub(before.stages[st.String()]))
	}
	m["lsmclient.roundtrip_self_us"] = float64(clientNanos)/1e3/float64(ph.attempted) - histMeanUS(serverOps)
	m["server.decode_us"] = stage(obs.StageDecode)
	m["server.coalesce_wait_us"] = stage(obs.StageCoalesce)
	m["server.engine_us"] = stage(obs.StageEngine)
	m["server.encode_us"] = stage(obs.StageEncode)
	m["server.write_us"] = stage(obs.StageWrite)
	m["server.self_us"] = histMeanUS(serverOps) - stage(obs.StageEngine)
	sv := after.server.Sub(before.server)
	m["server.coalesced_batch_size"] = ratio(float64(sv.CoalescedWrites), float64(sv.CoalescedBatches))

	d := after.engine.Sub(before.engine)
	gets := float64(ph.requests[opGet])
	queries := float64(ph.requests[opQuery] + ph.requests[opScan])
	results := float64(ph.records[opQuery] + ph.records[opScan])
	// A record read is a GET or one record a query or scan returned: the
	// unit the point-read path's counters are spread over.
	reads := gets + results
	written := float64(ph.requests[opUpsert] + ph.requests[opBatch]*batchSize)
	cacheProbes := float64(d.ReadCacheHits + d.ReadCacheMisses + d.ReadCacheNegHits)
	m["readcache.hit_rate"] = ratio(float64(d.ReadCacheHits), cacheProbes)
	m["readcache.neg_hit_rate"] = ratio(float64(d.ReadCacheNegHits), cacheProbes)
	m["readcache.invalidations_per_write"] = ratio(float64(d.ReadCacheInvalidations), written)

	m["wal.group_size"] = ratio(float64(d.GroupCommitWaiters), float64(d.GroupCommitBatches))
	m["wal.fsyncs_per_batch"] = ratio(float64(d.WALFsyncs), float64(d.GroupCommitBatches))
	m["wal.fsyncs_per_write"] = ratio(float64(d.WALFsyncs), float64(ph.writes()))
	m["core.write_stalls_per_kop"] = ratio(float64(d.WriteStalls), float64(ph.logical)/1e3)
	m["core.stall_ms_per_s"] = float64(d.WriteStallNanos) / 1e6 / ph.wall.Seconds()

	jb, ja := before.journal, after.journal
	const mib = 1 << 20
	m["maint.flushes"] = float64(ja.Flushes - jb.Flushes)
	m["maint.merges"] = float64(ja.Merges - jb.Merges)
	m["maint.flush_ms_per_mib"] = ratio(float64(ja.FlushNanos-jb.FlushNanos)/1e6, float64(ja.FlushBytes-jb.FlushBytes)/mib)
	m["maint.merge_ms_per_mib"] = ratio(float64(ja.MergeNanos-jb.MergeNanos)/1e6, float64(ja.MergeBytes-jb.MergeBytes)/mib)
	m["maint.busy_frac"] = float64(ja.FlushNanos-jb.FlushNanos+ja.MergeNanos-jb.MergeNanos) /
		float64(busyWall) / float64(storeOptions("").MaintenanceWorkers)
	m["maint.merge_bytes_per_user_byte"] = ratio(float64(ja.MergeBytes-jb.MergeBytes), userBytes)

	m["bloom.tests_per_get"] = ratio(float64(d.BloomTests), reads)
	m["bloom.negative_rate"] = ratio(float64(d.BloomNegatives), float64(d.BloomTests))
	m["btree.key_cmps_per_lookup"] = ratio(float64(d.KeyComparisons), reads)
	m["cache.hit_rate"] = ratio(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses))
	m["filedev.random_reads_per_get"] = ratio(float64(d.RandomReads), reads)
	m["filedev.seq_reads_per_query"] = ratio(float64(d.SequentialReads), queries)
	m["filedev.pages_written_per_user_kib"] = ratio(float64(d.PagesWritten), userBytes/1024)

	m["query.results_per_query"] = ratio(float64(ph.records[opQuery]), float64(ph.requests[opQuery]))
	m["query.point_lookups_per_result"] = ratio(float64(d.PointLookups), results)
	m["query.entries_scanned_per_result"] = ratio(float64(d.EntriesScanned), results)
}

// writeSpans writes every depth's spans as one JSON document.
func writeSpans(p params, spans map[string][]span) error {
	if err := os.MkdirAll(p.traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(p.traceDir, "trace-"+p.spec.name+".json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"workload":%q,"seed":%d,"unit":"ns since the depth's phase started","depths":{`, p.spec.name, p.seed)
	for i, depth := range []string{"a", "b", "c"} {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n%q:[", depth)
		for j, sp := range spans[depth] {
			if j > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "\n{\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"req\":%d}", sp.Name, sp.Start, sp.End, sp.Parent, sp.Req)
		}
		w.WriteByte(']')
	}
	w.WriteString("}}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
