package lsmstore

import (
	"errors"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/storage"
)

// partition is one shard: a self-contained dataset with its own device,
// buffer cache, write-ahead log and virtual clock, modelling one storage
// node (the paper evaluates one partition at a time, Section 6.1, and
// scales across them because ingestion and queries are partition-local).
type partition struct {
	ds    *core.Dataset
	store *storage.Store
	env   *metrics.Env
}

// shardOf hashes pk (FNV-1a, 64-bit) onto [0, n). The hash depends only on
// the key bytes and the shard count, so placement is deterministic across
// process restarts and reopens.
func shardOf(pk []byte, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range pk {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(n))
}

// dsFor returns the dataset owning pk.
func (db *DB) dsFor(pk []byte) *core.Dataset { return db.parts[shardOf(pk, len(db.parts))].ds }

// leg is one shard's part of a fan-out: run does shard i's work on its
// dataset. A per-request caller passes its recycled scratch (shardAnswers,
// batchScratch) as the leg, so a fan-out allocates no closure; control-plane
// calls (Flush, Close, Crash, Recover, repair) pass a func (fanOutEach).
type leg interface {
	run(i int, ds *core.Dataset) error
}

// legFunc is a func as a leg.
type legFunc func(i int, ds *core.Dataset) error

func (f legFunc) run(i int, ds *core.Dataset) error { return f(i, ds) }

// fanOut runs l once per partition and joins the per-shard errors in j.
// The last partition runs on the caller's goroutine and every other one on
// a helper (see helpers), so a one-shard store hands off nothing. A non-nil
// work holds each partition's amount of work: those with none get no leg.
// A per-request caller passes the join of its recycled scratch, so its
// fan-out allocates nothing.
func (db *DB) fanOut(j *fanJoin, work []int, l leg) error {
	if len(db.parts) == 1 {
		return l.run(0, db.parts[0].ds)
	}
	j.leg = l
	j.errs = slices.Grow(j.errs[:0], len(db.parts))[:len(db.parts)]
	last := -1
	for i := range db.parts {
		if work != nil && work[i] == 0 {
			continue
		}
		if last >= 0 {
			j.wg.Add(1)
			db.helpers.dispatch(legTask{j: j, i: last, ds: db.parts[last].ds})
		}
		last = i
	}
	if last >= 0 {
		j.errs[last] = l.run(last, db.parts[last].ds)
	}
	j.wg.Wait()
	err := errors.Join(j.errs...)
	clear(j.errs)
	j.leg = nil
	return err
}

// fanOutEach is fanOut over every partition with a join of its own, for
// the control-plane calls (Flush, Close, Crash, Recover, repair).
func (db *DB) fanOutEach(fn func(i int, ds *core.Dataset) error) error {
	return db.fanOut(new(fanJoin), nil, legFunc(fn))
}

// fanJoin is a fan-out's join: its leg, each shard's error and the wait
// for the legs handed to helpers. It serves one fan-out at a time.
type fanJoin struct {
	leg  leg
	errs []error
	wg   sync.WaitGroup
}

// legTask is one leg handed to a helper: shard i of the fan-out j.
type legTask struct {
	j  *fanJoin
	i  int
	ds *core.Dataset
}

// helpers runs fan-out legs on goroutines the DB owns. A leg goes to a
// parked helper or, when none is parked, starts one, so concurrent fan-outs
// never queue behind each other: the DB keeps as many helpers as legs were
// ever in flight at once. Helpers never exit before stop, which Close calls
// after its own last fan-out.
type helpers struct {
	work    chan legTask // unbuffered: a send succeeds only into a parked helper
	running sync.WaitGroup
}

func newHelpers() *helpers { return &helpers{work: make(chan legTask)} }

func (h *helpers) dispatch(t legTask) {
	select {
	case h.work <- t:
		return
	default:
	}
	h.running.Add(1)
	go h.serve(t)
}

// serve runs legs until stop closes the work channel. A leg's Done is its
// helper's last touch of the join, which its fan-out then recycles.
func (h *helpers) serve(t legTask) {
	defer h.running.Done()
	for ok := true; ok; t, ok = <-h.work {
		t.j.errs[t.i] = t.j.leg.run(t.i, t.ds)
		t.j.wg.Done()
	}
}

// stop ends every helper; no fan-out may start after it.
func (h *helpers) stop() {
	close(h.work)
	h.running.Wait()
}

// applyBatch applies the mutations shard by shard. Within a shard,
// mutations apply in input order, so writes to the same key keep their
// program order; across shards there is no ordering, matching the
// independence of hash partitions. The first error in a shard stops that
// shard's remaining mutations; all shard errors are joined. A non-nil
// report runs, with the call's error, on the per-mutation report of
// applyMutations at the original batch positions: the scratch's memory,
// valid only until report returns.
//
// A batch whose keys all hash to one shard — every batch of a one-shard
// store — is applied on the caller's goroutine with no grouping at all; only a batch
// that spans shards is regrouped and fanned out. Either way the call's
// bookkeeping lives in a batchScratch taken here and put back here.
func (db *DB) applyBatch(muts []Mutation, report func(applied []bool, err error)) error {
	if len(muts) == 0 {
		if report != nil {
			report(nil, nil)
		}
		return nil
	}
	sc := batchScratchPool.Get().(*batchScratch)
	var applied []bool
	if report != nil {
		applied = slices.Grow(sc.report[:0], len(muts))[:len(muts)]
		clear(applied)
		sc.report = applied
	}
	n := len(db.parts)
	shards := sc.forShards(n)
	owners, spans := sc.owners[:0], false
	for i := range muts {
		s := shardOf(muts[i].PK, n)
		owners = append(owners, s)
		spans = spans || s != owners[0]
	}
	sc.owners = owners
	var err error
	if spans {
		err = db.applyAcrossShards(sc, muts, applied)
	} else {
		err = applyMutations(db.parts[owners[0]].ds, muts, applied, &shards[owners[0]].log)
	}
	// Every shard has applied its group and nothing is acknowledged yet
	// (internal/readcache invariant 1). Keys of an errored batch are
	// dropped too: their on-disk outcome is uncertain.
	for i := range muts {
		db.invalidate(muts[i].PK)
	}
	if report != nil {
		report(applied, err)
	}
	sc.clear()
	if cap(sc.owners) <= maxRecycledBatch {
		batchScratchPool.Put(sc)
	}
	return err
}

// applyAcrossShards groups a batch by owning shard and applies the groups
// concurrently (fanOut), one leg per shard that has any; the scratch is the
// leg.
func (db *DB) applyAcrossShards(sc *batchScratch, muts []Mutation, applied []bool) error {
	sc.group(muts)
	sc.applied = applied
	return db.fanOut(&sc.join, sc.counts, sc)
}

// group sorts the batch into the shard groups (sc.owners[i] is mutation
// i's shard) and counts each group.
func (sc *batchScratch) group(muts []Mutation) {
	for i, s := range sc.owners {
		g := &sc.shards[s]
		g.muts = append(g.muts, muts[i])
		g.at = append(g.at, i)
	}
	for s := range sc.shards {
		sc.counts[s] = len(sc.shards[s].muts)
	}
}

// run applies shard s's group: batchScratch is applyAcrossShards' leg.
func (sc *batchScratch) run(s int, ds *core.Dataset) error {
	g := &sc.shards[s]
	if sc.applied == nil {
		return applyMutations(ds, g.muts, nil, &g.log)
	}
	g.applied = slices.Grow(g.applied[:0], len(g.muts))[:len(g.muts)]
	clear(g.applied)
	err := applyMutations(ds, g.muts, g.applied, &g.log)
	// Shards write disjoint index sets, so the scatter is race-free.
	for j, ok := range g.applied {
		sc.applied[g.at[j]] = ok
	}
	return err
}

// batchScratch is one applyBatch call's working memory: each mutation's
// owning shard, the call's per-mutation report and, per shard, its group
// of mutations with their batch positions and report, and its log batch.
// A call takes one from batchScratchPool and puts it back when it is done,
// so a batch in steady state allocates no bookkeeping and no report. clear
// drops the mutations, which point at the caller's bytes.
type batchScratch struct {
	owners  []int // owning shard per mutation
	counts  []int // mutations per shard: fanOut's work
	shards  []shardGroup
	report  []bool // the call's per-mutation report, kept for the next
	applied []bool // report while a call that wants one fans out, or nil
	join    fanJoin
}

// shardGroup is one shard's part of a batch.
type shardGroup struct {
	muts    []Mutation // in batch order
	at      []int      // muts[j] is the batch's mutation at[j]
	applied []bool     // applyMutations' report on muts
	log     core.Batch // the shard's deferred commits and Eager copy buffer
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// maxRecycledBatch bounds what the pool keeps, in mutations: a larger batch
// leaves its scratch, whose buffers grow with the batch, to the garbage
// collector.
const maxRecycledBatch = 1 << 14

// forShards returns the scratch's n empty shard groups. The pool serves
// every store in the process, so the groups only ever grow: a store with
// fewer shards leaves the rest, empty, for the next one with more.
func (sc *batchScratch) forShards(n int) []shardGroup {
	sc.shards = slices.Grow(sc.shards[:0], n)[:n]
	sc.counts = slices.Grow(sc.counts[:0], n)[:n]
	return sc.shards
}

// clear empties the scratch, keeping its memory but no reference to the
// batch: the mutations are cleared to their capacity.
func (sc *batchScratch) clear() {
	sc.applied = nil
	for s := range sc.shards {
		g := &sc.shards[s]
		clear(g.muts[:cap(g.muts)])
		g.muts, g.at = g.muts[:0], g.at[:0]
	}
}

// applyMutations applies the mutations to one dataset sequentially, in
// order, deferring their commits into log (see core.BeginCommitBatch), and,
// when applied is non-nil (it must then be at least len(muts) long),
// records whether each mutation took effect: upserts always do, duplicate
// inserts and deletes of missing keys do not. It stops at the first error
// (an unknown op is one), leaving later entries false.
//
// On a durable store the batch defers every mutation's commit fsync
// into one covering group fsync at the end — one fsync per batch, not per
// mutation. If that covering fsync fails, no write in the batch is
// GUARANTEED durable: every applied entry is reset to false and the fsync
// error is returned, so no caller acknowledges a write the disk may not
// have accepted. The report is conservative, not exact — a mid-batch
// flush can have installed some of the batch's writes in durable
// components before the WAL fsync failed, so an applied=false entry in an
// errored batch means "retry safely", never "certainly absent".
func applyMutations(ds *core.Dataset, muts []Mutation, applied []bool, log *core.Batch) error {
	b := ds.BeginCommitBatch(log)
	var firstErr error
	for i, m := range muts {
		ok, err := ds.Apply(m, b)
		if err != nil {
			firstErr = err
			break
		}
		if applied != nil {
			applied[i] = ok
		}
	}
	// The covering fsync must run even after a mid-batch error: the
	// mutations before the failure were reported applied and still need
	// their durability.
	if err := ds.WaitCommitBatch(b); err != nil {
		for i := range applied {
			applied[i] = false
		}
		if firstErr == nil {
			return err
		}
		return errors.Join(firstErr, err)
	}
	return firstErr
}

// secondaryQuery fans the query out to every shard, merges the answers and
// runs fn with the merged answer. Shards are independent hash partitions,
// so a primary key appears in exactly one shard's answer; the merged
// records (or keys) come in primary-key order — a deterministic total order
// regardless of shard interleaving — truncated to limit when limit > 0. The
// single-partition query has no early exit, so limit bounds the answer
// size, not the scan cost. Every slice and byte of the answer is a
// recycled shardAnswers', valid only until fn returns.
func (db *DB) secondaryQuery(index string, lo, hi []byte, opts query.SecondaryQueryOptions, limit int, fn func(*QueryResult)) error {
	sa := getShardAnswers()
	defer sa.release()
	sa.forShards(len(db.parts))
	sa.index, sa.lo, sa.hi, sa.opts = index, lo, hi, opts
	if err := db.fanOut(&sa.join, nil, sa); err != nil {
		return err
	}
	out := sa.merge()
	if limit > 0 {
		out.Records = out.Records[:min(limit, len(out.Records))]
		out.Keys = out.Keys[:min(limit, len(out.Keys))]
	}
	fn(out)
	return nil
}

// shardAnswers is one secondary query's or multi-shard filter scan's
// answer while it is built: the request every leg runs, each shard's
// answer with the arena holding its bytes, and the merged answer. It is
// the fan-out's leg. Recycled through shardAnswersPool with its arenas
// Reset, so a query in steady state allocates nothing here.
type shardAnswers struct {
	res    []query.SecondaryResult // shard i's answer
	arenas []kv.Arena              // shard i's answer's bytes
	merged QueryResult             // res in primary-key order

	// The request: a secondary query on index, or, with scan set, a filter
	// scan over [filterLo, filterHi].
	index              string
	lo, hi             []byte
	opts               query.SecondaryQueryOptions
	scan               bool
	filterLo, filterHi int64

	join fanJoin
}

var shardAnswersPool = sync.Pool{New: func() any { return new(shardAnswers) }}

// maxRecycledAnswer bounds the answer slices the pool keeps, in entries: a
// larger answer leaves them to the garbage collector. kv.Arena.Reset bounds
// what an arena keeps.
const maxRecycledAnswer = 1 << 14

func getShardAnswers() *shardAnswers { return shardAnswersPool.Get().(*shardAnswers) }

// forShards sizes the empty answers for n shards.
func (sa *shardAnswers) forShards(n int) {
	if cap(sa.res) < n {
		sa.res = make([]query.SecondaryResult, n)
		sa.arenas = make([]kv.Arena, n)
	}
	sa.res, sa.arenas = sa.res[:n], sa.arenas[:n]
}

// run answers shard i into res[i] and arenas[i].
func (sa *shardAnswers) run(i int, ds *core.Dataset) error {
	r, arena := &sa.res[i], &sa.arenas[i]
	if !sa.scan {
		return query.AppendSecondaryRange(r, arena, ds, ds.Secondary(sa.index), sa.lo, sa.hi, sa.opts)
	}
	return query.FilterScan(ds, sa.filterLo, sa.filterHi, func(e kv.Entry) {
		r.Records = append(r.Records, arena.CloneEntry(e))
	})
}

// merge gathers the shards' answers into merged, in primary-key order: not
// even one partition answers in that order, because the batched record
// fetch emits in component order.
func (sa *shardAnswers) merge() *QueryResult {
	var nRecords, nKeys int
	for i := range sa.res {
		nRecords += len(sa.res[i].Records)
		nKeys += len(sa.res[i].Keys)
	}
	out := &sa.merged
	out.Records = slices.Grow(out.Records, nRecords)
	out.Keys = slices.Grow(out.Keys, nKeys)
	for i := range sa.res {
		for _, e := range sa.res[i].Records {
			out.Records = append(out.Records, Record{PK: e.Key, Value: e.Value})
		}
		out.Keys = append(out.Keys, sa.res[i].Keys...)
	}
	slices.SortFunc(out.Records, func(a, b Record) int { return kv.Compare(a.PK, b.PK) })
	slices.SortFunc(out.Keys, kv.Compare)
	return out
}

// release drops everything the answers point at — their slices are cleared
// to capacity, the arenas Reset, the request forgotten — and returns them
// to the pool unless a slice grew past maxRecycledAnswer.
func (sa *shardAnswers) release() {
	keep := cap(sa.merged.Records)+cap(sa.merged.Keys) <= maxRecycledAnswer
	for i := range sa.res {
		r := &sa.res[i]
		keep = keep && cap(r.Records)+cap(r.Keys) <= maxRecycledAnswer
		clear(r.Records[:cap(r.Records)])
		clear(r.Keys[:cap(r.Keys)])
		r.Records, r.Keys = r.Records[:0], r.Keys[:0]
		sa.arenas[i].Reset()
	}
	m := &sa.merged
	clear(m.Records[:cap(m.Records)])
	clear(m.Keys[:cap(m.Keys)])
	m.Records, m.Keys = m.Records[:0], m.Keys[:0]
	sa.index, sa.lo, sa.hi, sa.opts = "", nil, nil, query.SecondaryQueryOptions{}
	sa.scan = false
	if keep {
		shardAnswersPool.Put(sa)
	}
}

// filterScan runs the primary-index range-filter scan on every shard
// concurrently, then emits the union in primary-key order from the
// caller's goroutine. A single partition already scans in primary-key
// order, so it streams straight to fn: an unbounded scan is never buffered.
// Otherwise the shards' records are copied into a recycled shardAnswers'
// arenas, valid only until fn returns.
func (db *DB) filterScan(lo, hi int64, fn func(pk, record []byte)) error {
	if len(db.parts) == 1 {
		return query.FilterScan(db.parts[0].ds, lo, hi, func(e kv.Entry) { fn(e.Key, e.Value) })
	}
	sa := getShardAnswers()
	defer sa.release()
	sa.forShards(len(db.parts))
	sa.scan, sa.filterLo, sa.filterHi = true, lo, hi
	if err := db.fanOut(&sa.join, nil, sa); err != nil {
		return err
	}
	for _, r := range sa.merge().Records {
		fn(r.PK, r.Value)
	}
	return nil
}

// stats computes the snapshot; the caller holds the lifecycle lock. Shards
// progress concurrently on independent devices, so the aggregate's three
// times are the maximum over shards; everything else is a sum.
func (db *DB) stats() Stats {
	per := make([]Stats, len(db.parts))
	var agg Stats
	var sim, ingest, mnt time.Duration
	for i, p := range db.parts {
		pIngest, pMnt := p.env.Clock.Now(), p.ds.MaintSimTime()
		pSim := max(pIngest, pMnt)
		pending, frozen := p.ds.MaintGauges()
		walBytes, compBytes, retired := p.ds.ReclaimStats()
		per[i] = Stats{
			SimulatedTime:       pSim.String(),
			IngestTime:          pIngest.String(),
			MaintenanceTime:     pMnt.String(),
			Ingested:            p.ds.IngestedCount(),
			Ignored:             p.ds.IgnoredCount(),
			PrimaryComponents:   p.ds.Primary().NumDiskComponents(),
			DiskBytesWritten:    p.store.Device().BytesWritten(),
			WALBytes:            walBytes,
			ComponentBytes:      compBytes,
			RetiredFiles:        retired,
			PendingFlushBatches: pending,
			FrozenMemtables:     frozen,
			Counters:            p.env.Counters.Snapshot(),
			Shards:              1,
		}
		sim, ingest, mnt = max(sim, pSim), max(ingest, pIngest), max(mnt, pMnt)
		agg.Ingested += per[i].Ingested
		agg.Ignored += per[i].Ignored
		agg.PrimaryComponents += per[i].PrimaryComponents
		agg.DiskBytesWritten += per[i].DiskBytesWritten
		agg.WALBytes += walBytes
		agg.ComponentBytes += compBytes
		agg.RetiredFiles += retired
		agg.PendingFlushBatches += pending
		agg.FrozenMemtables += frozen
		agg.Counters = agg.Counters.Add(per[i].Counters)
	}
	agg.SimulatedTime, agg.IngestTime, agg.MaintenanceTime = sim.String(), ingest.String(), mnt.String()
	if db.cache != nil {
		// The read cache fronts the whole store, so its counters fold
		// into the aggregate only, not into any shard's snapshot.
		agg.Counters = agg.Counters.Add(db.cache.Counters())
		agg.ReadCacheBytes = db.cache.HeapBytes()
	}
	agg.Shards = len(per)
	agg.Maintenance = db.journal.Summary()
	if len(per) > 1 {
		agg.PerShard = per
	}
	return agg
}
