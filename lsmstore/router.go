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
	"repro/internal/wal"
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

// fanOut runs fn once per partition and joins the per-shard errors. The
// last partition runs on the caller's goroutine and every other one on a
// goroutine of its own, so a one-shard store starts none. A non-nil work
// holds each partition's amount of work: those with none get no goroutine
// and no call.
func (db *DB) fanOut(work []int, fn func(i int, ds *core.Dataset) error) error {
	if len(db.parts) == 1 {
		return fn(0, db.parts[0].ds)
	}
	errs := make([]error, len(db.parts))
	var wg sync.WaitGroup
	last := -1
	for i := range db.parts {
		if work != nil && work[i] == 0 {
			continue
		}
		if last >= 0 {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = fn(i, db.parts[i].ds)
			}(last)
		}
		last = i
	}
	if last >= 0 {
		errs[last] = fn(last, db.parts[last].ds)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// applyBatch applies the mutations shard by shard. Within a shard,
// mutations apply in input order, so writes to the same key keep their
// program order; across shards there is no ordering, matching the
// independence of hash partitions. The first error in a shard stops that
// shard's remaining mutations; all shard errors are joined. A non-nil
// applied (len(muts) long) receives the per-mutation report of
// applyMutations, at the original batch positions.
//
// A batch whose keys all hash to one shard — every batch of a one-shard
// store — is applied on the caller's goroutine with no grouping at all; only a batch
// that spans shards is regrouped and fanned out. Either way the call's
// bookkeeping lives in a batchScratch taken here and put back here.
func (db *DB) applyBatch(muts []Mutation, applied []bool) error {
	if len(muts) == 0 {
		return nil
	}
	sc := batchScratchPool.Get().(*batchScratch)
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
	sc.clear()
	if cap(sc.owners) <= maxRecycledBatch {
		batchScratchPool.Put(sc)
	}
	return err
}

// applyAcrossShards groups a batch by owning shard (sc.owners[i] is
// mutation i's) and applies the groups concurrently (fanOut), one call per
// shard that has any.
func (db *DB) applyAcrossShards(sc *batchScratch, muts []Mutation, applied []bool) error {
	for i, s := range sc.owners {
		g := &sc.shards[s]
		g.muts = append(g.muts, muts[i])
		g.at = append(g.at, i)
	}
	for s := range sc.shards {
		sc.counts[s] = len(sc.shards[s].muts)
	}
	return db.fanOut(sc.counts, func(s int, ds *core.Dataset) error {
		g := &sc.shards[s]
		if applied == nil {
			return applyMutations(ds, g.muts, nil, &g.log)
		}
		g.applied = slices.Grow(g.applied[:0], len(g.muts))[:len(g.muts)]
		clear(g.applied)
		err := applyMutations(ds, g.muts, g.applied, &g.log)
		// Shards write disjoint index sets, so the scatter is race-free.
		for j, ok := range g.applied {
			applied[g.at[j]] = ok
		}
		return err
	})
}

// batchScratch is one applyBatch call's working memory: each mutation's
// owning shard and, per shard, its group of mutations with their batch
// positions and report, and its log batch. A call takes one from
// batchScratchPool and puts it back when it is done, so a batch in steady
// state allocates no bookkeeping. clear drops the mutations, which point at
// the caller's bytes.
type batchScratch struct {
	owners []int // owning shard per mutation
	counts []int // mutations per shard: fanOut's work
	shards []shardGroup
}

// shardGroup is one shard's part of a batch.
type shardGroup struct {
	muts    []Mutation // in batch order
	at      []int      // muts[j] is the batch's mutation at[j]
	applied []bool     // applyMutations' report on muts
	log     wal.Batch  // the shard's deferred commits
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
func applyMutations(ds *core.Dataset, muts []Mutation, applied []bool, log *wal.Batch) error {
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

// secondaryQuery fans the query out to every shard and merges the answers.
// Shards are independent hash partitions, so a primary key appears in
// exactly one shard's answer; the merged records (or keys) come back in
// primary-key order — a deterministic total order regardless of shard
// interleaving — truncated to limit when limit > 0. The single-partition
// query has no early exit, so limit bounds the answer size, not the scan
// cost. The shards answer into recycled per-shard slices, so the merged
// answer and the shards' arenas holding its bytes are what the query
// allocates.
func (db *DB) secondaryQuery(index string, lo, hi []byte, opts query.SecondaryQueryOptions, limit int) (*QueryResult, error) {
	sa := getShardAnswers()
	defer sa.release()
	perShard := sa.reset(len(db.parts))
	err := db.fanOut(nil, func(i int, ds *core.Dataset) error {
		return query.AppendSecondaryRange(&perShard[i], ds, ds.Secondary(index), lo, hi, opts)
	})
	if err != nil {
		return nil, err
	}
	out := &QueryResult{}
	var nRecords, nKeys int
	for i := range perShard {
		nRecords += len(perShard[i].Records)
		nKeys += len(perShard[i].Keys)
	}
	if nRecords > 0 {
		out.Records = make([]Record, 0, nRecords)
	}
	if nKeys > 0 {
		out.Keys = make([][]byte, 0, nKeys)
	}
	for i := range perShard {
		for _, e := range perShard[i].Records {
			out.Records = append(out.Records, Record{PK: e.Key, Value: e.Value})
		}
		out.Keys = append(out.Keys, perShard[i].Keys...)
	}
	// Not even one partition answers in primary-key order: the batched
	// record fetch emits in component order.
	slices.SortFunc(out.Records, func(a, b Record) int { return kv.Compare(a.PK, b.PK) })
	slices.SortFunc(out.Keys, kv.Compare)
	if limit > 0 {
		out.Records = out.Records[:min(limit, len(out.Records))]
		out.Keys = out.Keys[:min(limit, len(out.Keys))]
	}
	return out, nil
}

// shardAnswers holds a secondary query's or a multi-shard filter scan's
// per-shard answers until they are merged. Recycled through
// shardAnswersPool; release drops what they point at.
type shardAnswers struct{ res []query.SecondaryResult }

var shardAnswersPool = sync.Pool{New: func() any { return new(shardAnswers) }}

func getShardAnswers() *shardAnswers { return shardAnswersPool.Get().(*shardAnswers) }

// maxRecycledAnswer bounds the per-shard slices the pool keeps, in entries:
// a larger answer leaves them to the garbage collector.
const maxRecycledAnswer = 1 << 14

// reset returns n empty per-shard answers.
func (sa *shardAnswers) reset(n int) []query.SecondaryResult {
	if cap(sa.res) < n {
		sa.res = make([]query.SecondaryResult, n)
	}
	sa.res = sa.res[:n]
	for i := range sa.res {
		sa.res[i].Records, sa.res[i].Keys = sa.res[i].Records[:0], sa.res[i].Keys[:0]
	}
	return sa.res
}

// release clears the answers, which point into the query's arenas, and
// returns them to the pool unless one grew past maxRecycledAnswer.
func (sa *shardAnswers) release() {
	keep := true
	for i := range sa.res {
		r := &sa.res[i]
		clear(r.Records)
		clear(r.Keys)
		keep = keep && cap(r.Records)+cap(r.Keys) <= maxRecycledAnswer
	}
	if keep {
		shardAnswersPool.Put(sa)
	}
}

// filterScan runs the primary-index range-filter scan on every shard
// concurrently, then emits the union in primary-key order from the
// caller's goroutine. A single partition already scans in primary-key
// order, so it streams straight to fn: an unbounded scan is never buffered.
func (db *DB) filterScan(lo, hi int64, fn func(pk, record []byte)) error {
	if len(db.parts) == 1 {
		return query.FilterScan(db.parts[0].ds, lo, hi, func(e kv.Entry) { fn(e.Key, e.Value) })
	}
	sa := getShardAnswers()
	defer sa.release()
	perShard := sa.reset(len(db.parts))
	err := db.fanOut(nil, func(i int, ds *core.Dataset) error {
		var arena kv.Arena // this shard's records
		return query.FilterScan(ds, lo, hi, func(e kv.Entry) {
			perShard[i].Records = append(perShard[i].Records, arena.CloneEntry(e))
		})
	})
	if err != nil {
		return err
	}
	var total int
	for i := range perShard {
		total += len(perShard[i].Records)
	}
	all := make([]kv.Entry, 0, total)
	for i := range perShard {
		all = append(all, perShard[i].Records...)
	}
	slices.SortFunc(all, func(a, b kv.Entry) int { return kv.Compare(a.Key, b.Key) })
	for _, e := range all {
		fn(e.Key, e.Value)
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
