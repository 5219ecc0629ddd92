// Package shard implements a hash-partitioned router over N independent
// dataset partitions. The paper evaluates one partition at a time
// (Section 6.1) and notes that scaling across partitions is near-linear
// because both ingestion and queries are partition-local; this package
// supplies that scaling layer: primary-key operations route to one
// partition by PK hash, batches apply to all partitions concurrently, and
// secondary-index queries fan out to every partition, one goroutine each,
// and merge their answers. One partition is the N = 1 case of the same
// code: every fan-out then runs on the caller's goroutine.
//
// Each partition is a self-contained core.Dataset with its own simulated
// disk, buffer cache, write-ahead log, and virtual clock, modelling one
// storage node (or one spindle of a multi-disk node). Because partitions
// run concurrently, the router's aggregate simulated time is the maximum
// over partitions, while counters and byte totals are sums.
package shard

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// Partition is one shard: a dataset plus the storage handle and metrics
// environment it was opened against.
type Partition struct {
	DS    *core.Dataset
	Store *storage.Store
	Env   *metrics.Env
}

// Router fronts N partitions behind a single-dataset-shaped API.
type Router struct {
	parts []*Partition
	// invalidate, when set, is called with every mutated primary key after
	// its shard applied the mutation and before the batch returns (i.e.
	// before any caller can observe the ack). See SetInvalidator.
	invalidate func(pk []byte)
}

// NewRouter builds a router over the given partitions.
func NewRouter(parts []*Partition) (*Router, error) {
	if len(parts) == 0 {
		return nil, errors.New("shard: at least one partition is required")
	}
	return &Router{parts: parts}, nil
}

// SetInvalidator registers the read-cache invalidation hook: fn runs for
// every mutated primary key once its shard has applied the mutation,
// strictly before ApplyBatch/ApplyBatchResults return. It runs even when
// the shard reports an error (a failed covering fsync leaves the outcome
// uncertain, and an empty cache entry is always safe where a stale one is
// not). Must be set before the router serves traffic; it is not
// synchronized against in-flight batches.
func (r *Router) SetInvalidator(fn func(pk []byte)) { r.invalidate = fn }

// NumShards returns the partition count.
func (r *Router) NumShards() int { return len(r.parts) }

// Partition returns shard i.
func (r *Router) Partition(i int) *Partition { return r.parts[i] }

// Partitions returns all shards in order.
func (r *Router) Partitions() []*Partition { return r.parts }

// ShardOf returns the shard index owning pk. The hash (FNV-1a) depends
// only on the key bytes and the shard count, so placement is deterministic
// across process restarts and router reopens.
func (r *Router) ShardOf(pk []byte) int { return ShardOf(pk, len(r.parts)) }

// DatasetFor returns the dataset owning pk.
func (r *Router) DatasetFor(pk []byte) *core.Dataset { return r.parts[ShardOf(pk, len(r.parts))].DS }

// ShardOf hashes pk (FNV-1a, 64-bit) onto [0, n).
func ShardOf(pk []byte, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range pk {
		h ^= uint64(b)
		h *= prime64
	}
	if n <= 1 {
		return 0
	}
	return int(h % uint64(n))
}

// Op is a batched mutation's operation.
type Op uint8

// Batched operations.
const (
	// OpUpsert inserts or replaces the record under PK.
	OpUpsert Op = iota
	// OpInsert adds the record only when PK is absent (duplicates are
	// counted as ignored, matching Dataset.Insert).
	OpInsert
	// OpDelete removes the record under PK (missing keys are ignored).
	OpDelete
)

// Mutation is one write in an ApplyBatch.
type Mutation struct {
	Op     Op
	PK     []byte
	Record []byte // unused by OpDelete
}

// ApplyBatch groups the mutations by owning shard and applies each group
// concurrently, one goroutine per shard. Within a shard, mutations apply in input order,
// so writes to the same key keep their program order; across shards there
// is no ordering, matching the independence of hash partitions. The first
// error in a shard stops that shard's remaining mutations; all shard
// errors are joined.
func (r *Router) ApplyBatch(muts []Mutation) error {
	_, err := r.applyBatch(muts, nil)
	return err
}

// ApplyBatchResults is ApplyBatch plus a per-mutation report: applied[i]
// tells whether mutation i took effect (upserts always do; duplicate
// inserts and deletes of missing keys report false, matching the ignored
// counting of Insert and Delete). Entries past a shard's first error are
// left false.
func (r *Router) ApplyBatchResults(muts []Mutation) ([]bool, error) {
	return r.applyBatch(muts, make([]bool, len(muts)))
}

func (r *Router) applyBatch(muts []Mutation, applied []bool) ([]bool, error) {
	if len(muts) == 0 {
		return applied, nil
	}
	groups := make([][]Mutation, len(r.parts))
	var indexes [][]int // original positions per shard, for result scatter
	if applied != nil {
		indexes = make([][]int, len(r.parts))
	}
	if len(r.parts) == 1 {
		groups[0] = muts
	} else {
		// Hash each key once, then size the groups so appends don't
		// reallocate.
		owners := make([]int, len(muts))
		counts := make([]int, len(r.parts))
		for i := range muts {
			s := ShardOf(muts[i].PK, len(r.parts))
			owners[i] = s
			counts[s]++
		}
		for s, n := range counts {
			if n > 0 {
				groups[s] = make([]Mutation, 0, n)
				if applied != nil {
					indexes[s] = make([]int, 0, n)
				}
			}
		}
		for i := range muts {
			groups[owners[i]] = append(groups[owners[i]], muts[i])
			if applied != nil {
				indexes[owners[i]] = append(indexes[owners[i]], i)
			}
		}
	}
	err := r.fanOut(func(s int, p *Partition) error {
		err := r.applyGroup(s, p, groups[s], indexes, applied)
		// Invalidate every key the group touched, success or error —
		// after an errored batch the on-disk outcome per key is
		// uncertain, and dropping a cache entry is always safe.
		if r.invalidate != nil {
			for i := range groups[s] {
				r.invalidate(groups[s][i].PK)
			}
		}
		return err
	})
	return applied, err
}

// applyGroup applies one shard's slice of a batch and scatters the
// per-mutation results back to their original batch positions.
func (r *Router) applyGroup(s int, p *Partition, group []Mutation, indexes [][]int, applied []bool) error {
	if applied == nil {
		return applyMutations(p.DS, group, nil)
	}
	if len(r.parts) == 1 {
		return applyMutations(p.DS, group, applied)
	}
	got := make([]bool, len(group))
	err := applyMutations(p.DS, group, got)
	// Shards write disjoint index sets, so the scatter is race-free.
	for j, ok := range got {
		applied[indexes[s][j]] = ok
	}
	return err
}

// applyMutations applies the mutations to one dataset sequentially,
// in order (the per-shard half of ApplyBatch) and, when applied is non-nil (it must then be at least len(muts) long), records
// whether each mutation took effect: upserts always do, duplicate inserts
// and deletes of missing keys do not. It stops at the first error, leaving
// later entries false.
//
// On a group-commit store the batch defers every mutation's commit fsync
// into one covering group fsync at the end — one fsync per batch, not per
// mutation. If that covering fsync fails, no write in the batch is
// GUARANTEED durable: every applied entry is reset to false and the fsync
// error is returned, so no caller acknowledges a write the disk may not
// have accepted. The report is conservative, not exact — a mid-batch
// flush can have installed some of the batch's writes in durable
// components before the WAL fsync failed, so an applied=false entry in an
// errored batch means "retry safely", never "certainly absent" (the same
// contract the server's write coalescer documents for partial batch
// errors).
func applyMutations(ds *core.Dataset, muts []Mutation, applied []bool) error {
	b := ds.BeginCommitBatch()
	var firstErr error
	for i, m := range muts {
		var (
			ok  = true
			err error
		)
		switch m.Op {
		case OpUpsert:
			err = ds.UpsertBatched(m.PK, m.Record, b)
		case OpInsert:
			ok, err = ds.InsertBatched(m.PK, m.Record, b)
		case OpDelete:
			ok, err = ds.DeleteBatched(m.PK, b)
		default:
			err = fmt.Errorf("shard: unknown mutation op %d", m.Op)
		}
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
		if applied != nil {
			for i := range applied {
				applied[i] = false
			}
		}
		if firstErr == nil {
			return err
		}
		return errors.Join(firstErr, err)
	}
	return firstErr
}

// fanOut runs fn once per partition, one goroutine each (the caller's own
// for a single partition), and joins the per-shard errors.
func (r *Router) fanOut(fn func(i int, p *Partition) error) error {
	if len(r.parts) == 1 {
		return fn(0, r.parts[0])
	}
	errs := make([]error, len(r.parts))
	var wg sync.WaitGroup
	for i := range r.parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i, r.parts[i])
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ForEach runs fn on every partition's dataset concurrently, joining
// errors. It backs the lifecycle operations (flush, recovery,
// repair) that apply uniformly to all shards.
func (r *Router) ForEach(fn func(ds *core.Dataset) error) error {
	return r.fanOut(func(_ int, p *Partition) error { return fn(p.DS) })
}

// FlushAll flushes every shard.
func (r *Router) FlushAll() error {
	return r.ForEach(func(ds *core.Dataset) error { return ds.FlushAll() })
}

// Crash fails every shard: all memory components are lost, disk components
// survive (the cluster-wide power failure case).
func (r *Router) Crash() {
	_ = r.ForEach(func(ds *core.Dataset) error { ds.Crash(); return nil })
}

// Recover replays every shard's write-ahead log.
func (r *Router) Recover() error {
	return r.ForEach(func(ds *core.Dataset) error { return ds.Recover() })
}

// Stats is one shard's statistics snapshot, or an aggregate over shards.
type Stats struct {
	// SimulatedTime is the shard's elapsed virtual time: the maximum of
	// the ingest lane and the background maintenance lane (which overlap);
	// in an aggregate it is the maximum over shards (they run
	// concurrently).
	SimulatedTime int64 // nanoseconds
	// IngestTime is the ingest lane's virtual time: the time the write
	// path experienced. It equals SimulatedTime when maintenance runs on
	// the writers; with background workers it only absorbs maintenance
	// time at backpressure stalls and drains. Max in an aggregate.
	IngestTime int64 // nanoseconds
	// MaintTime is the background maintenance lane's virtual time (zero
	// without background workers); max in an aggregate.
	MaintTime int64 // nanoseconds
	// Ingested and Ignored count accepted and ignored writes.
	Ingested, Ignored int64
	// PrimaryComponents is the primary index's disk-component count
	// (summed in an aggregate).
	PrimaryComponents int
	// DiskBytesWritten is total bytes flushed/merged.
	DiskBytesWritten int64
	// PendingFlushBatches and FrozenMemtables are maintenance gauges:
	// frozen batches queued for flush and frozen memtables not yet
	// installed (summed in an aggregate).
	PendingFlushBatches int
	FrozenMemtables     int
	// Counters snapshots the low-level event counters.
	Counters metrics.Snapshot
}

// StatsPerShard snapshots every shard's statistics, in shard order.
func (r *Router) StatsPerShard() []Stats {
	out := make([]Stats, len(r.parts))
	for i, p := range r.parts {
		ingest := int64(p.Env.Clock.Now())
		mnt := int64(p.DS.MaintSimTime())
		sim := ingest
		if mnt > sim {
			sim = mnt
		}
		pending, frozen := p.DS.MaintGauges()
		out[i] = Stats{
			SimulatedTime:       sim,
			IngestTime:          ingest,
			MaintTime:           mnt,
			Ingested:            p.DS.IngestedCount(),
			Ignored:             p.DS.IgnoredCount(),
			PrimaryComponents:   p.DS.Primary().NumDiskComponents(),
			DiskBytesWritten:    p.Store.Device().BytesWritten(),
			PendingFlushBatches: pending,
			FrozenMemtables:     frozen,
			Counters:            p.Env.Counters.Snapshot(),
		}
	}
	return out
}

// Aggregate folds per-shard stats into cluster totals: sums everywhere
// except SimulatedTime, which is the maximum because shards progress
// concurrently on independent devices.
func Aggregate(per []Stats) Stats {
	var agg Stats
	for _, s := range per {
		if s.SimulatedTime > agg.SimulatedTime {
			agg.SimulatedTime = s.SimulatedTime
		}
		if s.IngestTime > agg.IngestTime {
			agg.IngestTime = s.IngestTime
		}
		if s.MaintTime > agg.MaintTime {
			agg.MaintTime = s.MaintTime
		}
		agg.Ingested += s.Ingested
		agg.Ignored += s.Ignored
		agg.PrimaryComponents += s.PrimaryComponents
		agg.DiskBytesWritten += s.DiskBytesWritten
		agg.PendingFlushBatches += s.PendingFlushBatches
		agg.FrozenMemtables += s.FrozenMemtables
		agg.Counters = agg.Counters.Add(s.Counters)
	}
	return agg
}
