// Package lsmstore is the public API of this repository: a general-purpose
// LSM-based storage engine with secondary indexes and range filters,
// implementing the ingestion and query-processing techniques of Luo &
// Carey, "Efficient Data Ingestion and Query Processing for LSM-Based
// Storage Systems" (PVLDB 12(5), 2019).
//
// A DB routes over one or more dataset partitions, each kept in files under
// its own directory with an explicit I/O cost model charged to a virtual
// clock (see the internal/metrics and internal/storage package docs), and
// each holding a primary LSM index, an optional primary key index, and any
// number of secondary indexes that share a memory budget. The maintenance strategy for
// auxiliary structures — Eager, Validation, Mutable-bitmap, or Deleted-key
// B+-tree — is chosen at Open time, and queries pick a validation method
// per request.
//
// Quickstart:
//
//	db, _ := lsmstore.Open(lsmstore.Options{
//		Strategy: lsmstore.Validation,
//		Secondaries: []lsmstore.SecondaryIndex{
//			{Name: "user", Extract: extractUserID},
//		},
//	})
//	db.Upsert(pk, record)
//	res, _ := db.SecondaryQuery("user", loKey, hiKey, lsmstore.QueryOptions{
//		Validation: lsmstore.TimestampValidation,
//	})
//
// # Sharding
//
// Every DB is a hash-partitioned store: Options.Shards independent
// partitions (default 1), each with its own disk, buffer cache,
// write-ahead log and virtual clock; the DB itself is the router (router.go).
// Primary-key operations route to the owning partition by PK hash;
// ApplyBatch groups a batch of mutations per shard and applies the groups
// concurrently; SecondaryQuery and FilterScan fan out to every shard —
// every shard but the last on a helper goroutine the DB keeps parked until
// Close, the last on the caller's — and merge the answers in primary-key
// order, into recycled memory that SecondaryQueryWith and FilterScanWith
// lend their callbacks and SecondaryQuery copies once; Flush, Crash,
// Recover, RepairSecondaryIndexes and Stats apply to (or aggregate over)
// all shards. One shard is the N = 1 case of the same code, not a second
// program: fan-outs run on the caller's goroutine and a batch is not
// regrouped. An unbounded scan buffers its whole answer at every shard
// count, a bounded one at most its limit per shard; the pool keeps an
// answer's slices only up to maxRecycledAnswer entries.
//
// # Maintenance
//
// Each partition has one flush pipeline: the write that crosses the memory
// budget freezes the memory components, and the disk-component builds and
// policy-picked merges run as jobs of one pool shared by all partitions.
// Options.MaintenanceWorkers sizes the pool; at 0 a job runs on the writer
// that submitted it, before that write returns.
//
// # Configuration
//
// The Options doc comment lists what a caller can set and what is a
// constant instead. The paper's ablations are neither: they are core.Config
// settings of internal/experiments.
package lsmstore

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/lsm"
	"repro/internal/maint"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/readcache"
	"repro/internal/repair"
	"repro/internal/storage"
	"repro/internal/storage/filedev"
)

// Strategy selects the auxiliary-structure maintenance strategy.
type Strategy = core.Strategy

// Maintenance strategies (paper Sections 3-5).
const (
	Eager         = core.Eager
	Validation    = core.Validation
	MutableBitmap = core.MutableBitmap
	DeletedKey    = core.DeletedKey
)

// ValidationMethod selects query validation (Figure 5).
type ValidationMethod = query.ValidationMethod

// Validation methods.
const (
	NoValidation        = query.NoValidation
	DirectValidation    = query.Direct
	TimestampValidation = query.Timestamp
)

// Backend names a storage backend. Every DB runs on files, so it has one
// value and Open ignores it.
//
// Deprecated: leave Options.Backend unset.
type Backend int

// FileBackend is Backend's one value.
//
// Deprecated: leave Options.Backend unset.
const FileBackend Backend = 0

// SecondaryIndex declares one secondary index.
type SecondaryIndex struct {
	// Name identifies the index in SecondaryQuery calls.
	Name string
	// Extract returns the secondary key of a record, or false when the
	// record carries none.
	Extract func(record []byte) ([]byte, bool)
}

// Options configures a DB. The zero value gives an Eager-strategy store in a
// fresh temporary directory that Close removes, with a 64 MB buffer cache, a
// 4 MB memory budget, tiering merges, a primary key index and the paper's
// SSD cost model (32 KiB pages) charged to its virtual clocks; any other
// PageSize keeps the HDD cost model at that page size. What a DB lets a caller
// choose is the schema (Strategy, Secondaries, FilterExtract), where the
// data lives (Dir, Shards, PageSize), its budgets (CacheBytes, MemoryBudget,
// MaintenanceWorkers, ReadCache), Seed and two hooks that let a test
// substitute a fake. Everything else is fixed: the write-ahead log is always
// on and commits through a group (concurrent committers share one covering
// fsync, an ApplyBatch pays one per batch, and no write is acknowledged
// before the fsync covering its log record returns) whose leader waits only
// for an fsync already in flight; Mutable-bitmap merges use the Side-file
// method; merges never repair secondary indexes; and the maintenance journal
// keeps the last 256 events. The paper's ablations (no primary key index,
// correlated merges, merge repair, the Bloom-filter repair optimization,
// blocked Bloom filters, no merges, the other concurrency-control methods,
// no log) are core.Config and storage settings that internal/experiments
// sets directly, on the simulated device the figures run on; they are not
// options of a DB.
type Options struct {
	// Strategy is the maintenance strategy for secondary indexes and
	// filters.
	Strategy Strategy
	// Secondaries declares secondary indexes.
	Secondaries []SecondaryIndex
	// FilterExtract, when set, maintains a component-level range filter
	// over the extracted value (e.g. a creation timestamp).
	FilterExtract func(record []byte) (int64, bool)
	// Backend is ignored.
	//
	// Deprecated: every DB runs on files; leave it unset.
	Backend Backend
	// Dir is the data directory. Each shard keeps its own subdirectory;
	// reopening an existing directory restores all committed data and
	// requires the same Shards, PageSize and Strategy it was written with.
	// Empty means a fresh temporary directory that Close removes.
	Dir string
	// PageSize is the device page size (0 = 32 KiB). A 32 KiB page, set
	// or defaulted, is the paper's SSD page and is charged at its SSD
	// costs; any other size keeps the HDD cost model scaled to that size.
	PageSize int
	// CacheBytes sizes the buffer cache (2 GB HDD / 4 GB SSD in the
	// paper; defaults to 64 MB here to match scaled-down datasets).
	CacheBytes int64
	// MemoryBudget is the shared memory-component budget (default 4 MB, at
	// most memtable.MaxBudget, 1 GiB). Every byte a write copies into a
	// memory component is charged to it: a new key's entry and every
	// overwrite's value, so a hot set overwritten in place flushes as new
	// keys do.
	MemoryBudget int
	// Seed fixes all pseudo-random choices.
	Seed int64
	// Shards selects the number of hash partitions (values below 1 mean
	// 1). With Shards > 1 the buffer cache (hardware RAM) is split evenly
	// across partitions, while MemoryBudget applies per partition,
	// following the paper's per-partition budget (128 MB per dataset
	// partition in Section 6.1).
	Shards int
	// MaintenanceWorkers sizes the pool, shared by every shard, that runs
	// the flush pipeline's jobs. A flush swaps the memory components (the
	// frozen memtables stay readable until their disk components install)
	// and submits the component builds; policy-picked merges follow as jobs
	// of their own. Each shard schedules its own builds and merges, so
	// partitions compact independently and concurrently. At 0 (the
	// default) the pool has no workers and a job runs on the goroutine
	// that submits it: the write crossing the memory budget builds the
	// components and runs every due merge before it returns. A failed
	// build or merge wedges the shard at any worker count: the batch
	// installs nothing, every later write returns the error, and Crash +
	// Recover (or a reopen) clears it.
	MaintenanceWorkers int
	// ReadCache enables the sharded hot-entry cache on the point-read path
	// (Get/GetWith): positive entries map a primary key to its encoded
	// record, negative entries remember keys known to be absent. Every
	// write path invalidates its mutated keys after the engine applies them
	// and before the write is acknowledged, and Crash/Recover flush the
	// cache, so a read can never observe a value staler than the writes it
	// was ordered after (see internal/readcache for the full contract).
	// The zero value leaves the cache off and the read path exactly as it
	// is without one. Counters surface in Stats.Counters.ReadCache*.
	ReadCache ReadCacheOptions

	// The remaining fields are the seams through which deterministic
	// simulation testing (internal/dst) substitutes a fault-injecting
	// device and a seeded scheduler. Production callers leave them nil.

	// WrapDevice, when set, wraps each partition's storage device before
	// the store and WAL are built. It receives the shard index and the
	// opened device; the returned device is used in its place. The inner
	// device is a storage.Durable and the wrapper must return one: Open
	// refuses a shard whose wrapper dropped the durable half rather than run
	// it without a manifest.
	WrapDevice func(shard int, dev storage.Device) storage.Device
	// Yield, when set, is invoked at the instrumented scheduling points in
	// the WAL commit path and the maintenance pool, letting the
	// simulation harness perturb goroutine interleavings. Nil leaves
	// scheduling to the runtime.
	Yield func(point string)
}

// ReadCacheOptions sizes the read cache of Options.ReadCache.
type ReadCacheOptions struct {
	// Bytes bounds the memory the cache's record chunks hold: each entry's
	// key, value and a 16-byte header. Its index adds a few percent
	// (Stats.ReadCacheBytes reports both). 0 disables the cache.
	Bytes int64
	// Segments is the number of independently locked cache segments,
	// rounded up to a power of two (default 16). Ignored when Bytes is 0.
	Segments int
}

// ErrClosed reports an operation on a DB after Close.
var ErrClosed = errors.New("lsmstore: store is closed")

// DB is a hash-partitioned group of Options.Shards dataset partitions and
// the router over them.
type DB struct {
	parts   []partition      // at least one
	pool    *maint.Pool      // run-on-caller when Options.MaintenanceWorkers is 0
	cache   *readcache.Cache // non-nil only when Options.ReadCache.Bytes > 0
	journal *obs.Journal     // flush/merge events of every shard
	helpers *helpers         // run fan-out legs; stopped by Close
	tempDir string           // the directory Open made for an empty Options.Dir; Close removes it

	// mu guards the lifecycle: public operations hold it shared, Close
	// holds it exclusively, so Close waits for in-flight operations to
	// drain and later operations observe closed and fail with ErrClosed.
	mu         sync.RWMutex
	closed     bool
	finalStats Stats // snapshot taken by Close, served by Stats afterwards
}

// acquire takes the shared lifecycle lock, failing after Close. Every
// public operation pairs it with release.
func (db *DB) acquire() error {
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return ErrClosed
	}
	return nil
}

func (db *DB) release() { db.mu.RUnlock() }

// Open creates an empty DB or reopens a previously written Options.Dir:
// component files are restored from the per-shard manifests, the on-disk
// write-ahead logs are replayed, and every committed write — whether the
// previous process Closed cleanly or crashed — is served again. With an
// empty Dir the store lives in a fresh temporary directory, which Close (or
// a failed Open) removes.
func Open(opts Options) (*DB, error) {
	if opts.Dir == "" {
		dir, err := os.MkdirTemp("", "lsmstore-*")
		if err != nil {
			return nil, err
		}
		opts.Dir = dir
		db, err := Open(opts)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		db.tempDir = dir
		return db, nil
	}
	if err := checkLayout(opts); err != nil {
		return nil, err
	}
	return open(opts, fileDevice)
}

// shardDevice opens shard idx's device on profile, counting its events in
// c, before the shard's store and dataset are built on it.
type shardDevice func(opts Options, idx int, profile storage.Profile, c *metrics.Counters) (storage.Device, error)

// fileDevice is Open's shardDevice: the shard's subdirectory of Options.Dir,
// wrapped by Options.WrapDevice, which must leave it a storage.Durable.
func fileDevice(opts Options, idx int, profile storage.Profile, c *metrics.Counters) (storage.Device, error) {
	fd, err := filedev.Open(shardDir(opts.Dir, idx), profile)
	if err != nil {
		return nil, err
	}
	fd.AttachCounters(c)
	dev := storage.Device(fd)
	if opts.WrapDevice != nil {
		dev = opts.WrapDevice(idx, dev)
	}
	if _, ok := dev.(storage.Durable); !ok {
		dev.Close()
		return nil, fmt.Errorf("lsmstore: Options.WrapDevice returned a device for shard %d that is not a storage.Durable: the shard would keep no manifest", idx)
	}
	return dev, nil
}

// open builds a DB whose shards run on the devices device opens.
func open(opts Options, device shardDevice) (*DB, error) {
	pool := maint.NewPool(opts.MaintenanceWorkers)
	pool.SetYield(opts.Yield)
	journal := obs.NewJournal(0) // the default ring: 256 events
	parts, err := openPartitions(opts, device, pool, journal)
	if err != nil {
		pool.Close()
		return nil, err
	}
	return &DB{parts: parts, pool: pool, cache: newReadCache(opts), journal: journal, helpers: newHelpers()}, nil
}

// newReadCache builds the read cache, or nil when Options.ReadCache is off.
func newReadCache(opts Options) *readcache.Cache {
	if opts.ReadCache.Bytes <= 0 {
		return nil
	}
	return readcache.New(readcache.Options{
		Bytes:    opts.ReadCache.Bytes,
		Segments: opts.ReadCache.Segments,
	})
}

// openPartitions opens Options.Shards independent partitions — the buffer
// cache splits evenly across them, the memory budget applies per partition
// (the paper's per-partition budget). All partitions share one maintenance
// pool, so background work is bounded machine-wide while each shard
// compacts independently.
func openPartitions(opts Options, device shardDevice, pool *maint.Pool, journal *obs.Journal) ([]partition, error) {
	n := max(opts.Shards, 1)
	per := opts
	per.CacheBytes = resolveCacheBytes(opts)
	if n > 1 {
		per.CacheBytes /= int64(n)
		if minCache := int64(8 * resolvePageSize(opts)); per.CacheBytes < minCache {
			per.CacheBytes = minCache
		}
	}
	profile := storage.SSD()
	if size := resolvePageSize(opts); size != profile.PageSize {
		profile = storage.ScaledHDD(size)
	}
	parts := make([]partition, n)
	for i := range parts {
		po := per
		// Distinct seeds keep per-shard memtable shapes independent while
		// staying deterministic for a given (Seed, Shards) pair.
		po.Seed = opts.Seed + int64(i)*101
		env := metrics.NewEnv()
		dev, err := device(po, i, profile, env.Counters)
		var p partition
		if err == nil {
			p, err = openPartition(po, dev, env, pool, journal, i)
		}
		if err != nil {
			for _, prev := range parts[:i] {
				prev.store.Device().Close()
			}
			return nil, err
		}
		parts[i] = p
	}
	return parts, nil
}

// resolveCacheBytes applies the buffer-cache default (64 MB, matching the
// scaled-down datasets; 2 GB HDD / 4 GB SSD in the paper).
func resolveCacheBytes(opts Options) int64 {
	if opts.CacheBytes != 0 {
		return opts.CacheBytes
	}
	return 64 << 20
}

// resolvePageSize returns the effective device page size for the options.
func resolvePageSize(opts Options) int {
	if opts.PageSize > 0 {
		return opts.PageSize
	}
	return storage.SSD().PageSize
}

// openPartition builds shard idx's store and dataset on dev, which it
// closes if the dataset does not open.
func openPartition(opts Options, dev storage.Device, env *metrics.Env, pool *maint.Pool, journal *obs.Journal, idx int) (partition, error) {
	store := storage.NewStore(dev, resolveCacheBytes(opts), env)

	cfg := core.Config{
		Store:         store,
		Strategy:      opts.Strategy,
		FilterExtract: opts.FilterExtract,
		MemoryBudget:  opts.MemoryBudget,
		UsePKIndex:    true,
		BloomFPR:      0.01,
		Bloom:         bloom.KindV2,
		Policy:        lsm.NewTiering(0),
		Seed:          opts.Seed,
		Maintenance:   pool,
		Yield:         opts.Yield,
		Journal:       obs.ShardJournal{J: journal, Shard: idx},
	}
	for _, s := range opts.Secondaries {
		cfg.Secondaries = append(cfg.Secondaries, core.SecondarySpec(s))
	}
	ds, err := core.Open(cfg)
	if err != nil {
		dev.Close()
		return partition{}, err
	}
	return partition{ds: ds, store: store, env: env}, nil
}

// Insert adds a record; it reports false when the key already exists.
func (db *DB) Insert(pk, record []byte) (bool, error) {
	return db.apply(Mutation{Op: OpInsert, PK: pk, Record: record})
}

// Upsert inserts or replaces the record under pk.
func (db *DB) Upsert(pk, record []byte) error {
	_, err := db.apply(Mutation{Op: OpUpsert, PK: pk, Record: record})
	return err
}

// Delete removes the record under pk; it reports false when absent.
func (db *DB) Delete(pk []byte) (bool, error) {
	return db.apply(Mutation{Op: OpDelete, PK: pk})
}

// apply routes one mutation to its shard; the commit is durable on return.
func (db *DB) apply(m Mutation) (bool, error) {
	if err := db.acquire(); err != nil {
		return false, err
	}
	defer db.release()
	ok, err := db.dsFor(m.PK).Apply(m, nil)
	db.invalidate(m.PK)
	return ok, err
}

// invalidate drops pk's read-cache entry after a mutation has been applied
// and before the write returns to the caller. It runs even when the
// mutation was ignored or errored — dropping an entry is always safe, and
// after an uncertain outcome (a failed covering fsync) it is required.
func (db *DB) invalidate(pk []byte) {
	if db.cache != nil {
		db.cache.Invalidate(pk)
	}
}

// Get returns the current record under pk. The returned slice is the
// caller's to keep: it is an exactly sized copy.
func (db *DB) Get(pk []byte) ([]byte, bool, error) {
	var rec []byte
	found, err := db.GetWith(pk, func(v []byte) {
		rec = make([]byte, len(v))
		copy(rec, v)
	})
	if err != nil || !found {
		return nil, false, err
	}
	return rec, true, nil
}

// GetRef is Get, kept for the callers that use the name. No read can share
// the read cache's bytes: the cache reuses the chunks it keeps records in,
// so every record a read returns is a copy.
func (db *DB) GetRef(pk []byte) ([]byte, bool, error) { return db.Get(pk) }

// GetWith runs fn with the current record under pk and reports whether
// there is one (fn runs only then). The record is the engine's bytes — a
// pinned buffer-cache page, a memtable value or a pooled copy of the read
// cache's entry — and is valid only until fn returns: fn must copy what it
// keeps and must not modify it. The network server encodes GET responses
// from inside fn, straight into its output frame.
func (db *DB) GetWith(pk []byte, fn func(record []byte)) (bool, error) {
	if err := db.acquire(); err != nil {
		return false, err
	}
	defer db.release()
	return db.get(pk, fn)
}

// hitBufs holds the buffers a read-cache hit is copied into for its
// visitor: the cache reuses its ring, so a hit cannot lend its bytes out.
var hitBufs = sync.Pool{New: func() any { return new([]byte) }}

// get is the one point-read path: read cache first, engine on a miss,
// filling the cache under the version-token protocol that discards fills
// raced by an invalidation (internal/readcache invariant 2). visit runs
// with the record while it is valid (see GetWith).
func (db *DB) get(pk []byte, visit func(v []byte)) (bool, error) {
	primary := db.dsFor(pk).Primary()
	if db.cache == nil {
		return primary.Get(pk, func(e kv.Entry) { visit(e.Value) })
	}
	bp := hitBufs.Get().(*[]byte)
	v, out, tok := db.cache.Append((*bp)[:0], pk)
	if out == readcache.Hit {
		visit(v)
	}
	*bp = v
	hitBufs.Put(bp)
	if out != readcache.Miss {
		return out == readcache.Hit, nil
	}
	found, err := primary.Get(pk, func(e kv.Entry) {
		db.cache.Put(pk, e.Value, tok)
		visit(e.Value)
	})
	if err == nil && !found {
		db.cache.PutNegative(pk, tok)
	}
	return found, err
}

// Record, Mutation and Op are defined once, in internal/kv; internal/wire
// aliases the same types, so a served batch or answer is never converted.
type (
	// Record is one fetched record.
	Record = kv.Record
	// Mutation is one write in an ApplyBatch.
	Mutation = kv.Mutation
	// Op is a Mutation's operation.
	Op = kv.Op
)

// Batched operations.
const (
	OpUpsert = kv.OpUpsert
	OpInsert = kv.OpInsert
	OpDelete = kv.OpDelete
)

// ApplyBatch applies a batch of mutations. The batch is grouped by owning
// shard and the groups apply concurrently; mutations to the same primary
// key always land in the same shard and keep their order within the batch
// (with one shard the whole batch applies sequentially in order). Duplicate
// inserts and deletes of missing keys are counted as ignored, as in Insert
// and Delete. Every mutated key's read-cache entry is dropped before the
// call returns.
func (db *DB) ApplyBatch(muts []Mutation) error {
	if err := db.acquire(); err != nil {
		return err
	}
	defer db.release()
	return db.applyBatch(muts, nil)
}

// ApplyBatchResults is ApplyBatch plus a per-mutation report: applied[i]
// tells whether mutation i took effect — upserts always do, duplicate
// inserts and deletes of missing keys do not (they are the batch's ignored
// writes). Entries after a shard's first error are left false; the report
// is returned with the error too.
func (db *DB) ApplyBatchResults(muts []Mutation) ([]bool, error) {
	if err := db.acquire(); err != nil {
		return nil, err
	}
	defer db.release()
	applied := make([]bool, len(muts))
	return applied, db.applyBatch(muts, func(report []bool, _ error) { copy(applied, report) })
}

// ApplyBatchWith is ApplyBatchResults handing the report to fn instead of
// returning it (fn runs only when the batch succeeds). The report is
// recycled memory of the store's and is valid only until fn returns, like
// GetWith's record: fn must copy what it keeps. A batch in steady state
// allocates no report. The network server answers an APPLY_BATCH request
// from inside fn, encoding the report straight into its output frame.
func (db *DB) ApplyBatchWith(muts []Mutation, fn func(applied []bool)) error {
	if err := db.acquire(); err != nil {
		return err
	}
	defer db.release()
	return db.applyBatch(muts, func(applied []bool, err error) {
		if err == nil {
			fn(applied)
		}
	})
}

// NumShards returns the number of hash partitions.
func (db *DB) NumShards() int { return len(db.parts) }

// QueryOptions configures a secondary-index query.
type QueryOptions struct {
	// Validation selects the validation method; required (non-
	// NoValidation) for lazy strategies. An Eager store answers every
	// method as NoValidation.
	Validation ValidationMethod
	// IndexOnly returns primary keys without fetching records. Direct
	// validation validates by fetching them, so the pair is ErrBadQuery.
	IndexOnly bool
	// Limit caps the number of returned records (or keys, for index-only
	// queries); 0 means unlimited. The answer is sorted in primary-key
	// order before the cap applies, so the selected subset is deterministic
	// for a given store state and does not change when a store is
	// re-opened with a different Shards value.
	Limit int
}

// QueryResult is a secondary query's answer. The records (and keys) of one
// answer are sub-slices of one shared backing array, embedded and over the
// wire alike: SecondaryQuery's answer is the caller's to read and keep, but
// keeping one keeps its neighbours' bytes alive, so copy what must outlive
// the answer. SecondaryQueryWith's answer is the store's, and is valid only
// until its callback returns.
type QueryResult struct {
	// Records holds (pk, record) pairs for non-index-only queries.
	Records []Record
	// Keys holds matching primary keys for index-only queries.
	Keys [][]byte
}

// ErrUnknownIndex reports a query against an undeclared secondary index.
var ErrUnknownIndex = errors.New("lsmstore: unknown secondary index")

// ErrBadQuery reports query options that no execution can honour: a
// validation method outside the defined range, or an index-only query with
// Direct validation (which validates by fetching the records).
var ErrBadQuery = errors.New("lsmstore: bad query options")

// SecondaryQuery runs a range query lo <= secondary key <= hi on the named
// index. Results are in primary-key order, on every shard count. The answer
// is SecondaryQueryWith's copied into memory of its own: the result, its
// records (or keys) slice and one exactly sized block holding every byte.
func (db *DB) SecondaryQuery(index string, lo, hi []byte, opts QueryOptions) (*QueryResult, error) {
	var out *QueryResult
	err := db.SecondaryQueryWith(index, lo, hi, opts, func(res *QueryResult) { out = res.clone() })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SecondaryQueryWith is SecondaryQuery handing the answer to fn instead of
// returning it (fn runs only when the query succeeds). The answer — the
// result, its slices and every byte they hold — is recycled memory of the
// store's and is valid only until fn returns, like GetWith's record: fn
// must copy what it keeps and must not modify it. A query in steady state
// allocates nothing. The network server encodes SECONDARY_QUERY responses
// from inside fn, straight into its output frame.
func (db *DB) SecondaryQueryWith(index string, lo, hi []byte, opts QueryOptions, fn func(*QueryResult)) error {
	if err := db.acquire(); err != nil {
		return err
	}
	defer db.release()
	switch {
	case !opts.Validation.Valid():
		return fmt.Errorf("%w: validation method %d out of range", ErrBadQuery, opts.Validation)
	case opts.IndexOnly && opts.Validation == DirectValidation:
		return fmt.Errorf("%w: index-only with direct validation", ErrBadQuery)
	case db.parts[0].ds.Secondary(index) == nil: // every partition declares the same indexes
		return fmt.Errorf("%w: %q", ErrUnknownIndex, index)
	}
	return db.secondaryQuery(index, lo, hi, query.SecondaryQueryOptions{
		Validation: opts.Validation,
		IndexOnly:  opts.IndexOnly,
		Lookup:     query.DefaultLookupConfig(),
	}, opts.Limit, fn)
}

// clone copies the answer into the result, records (or keys) slice and
// byte block of its own; empty byte strings stay nil, as the arenas leave
// them.
func (r *QueryResult) clone() *QueryResult {
	n := 0
	for _, rec := range r.Records {
		n += len(rec.PK) + len(rec.Value)
	}
	for _, k := range r.Keys {
		n += len(k)
	}
	block := make([]byte, 0, n)
	take := func(b []byte) []byte {
		if len(b) == 0 {
			return nil
		}
		at := len(block)
		block = append(block, b...)
		return block[at:len(block):len(block)]
	}
	out := &QueryResult{}
	if len(r.Records) > 0 {
		out.Records = make([]Record, len(r.Records))
		for i, rec := range r.Records {
			out.Records[i] = Record{PK: take(rec.PK), Value: take(rec.Value)}
		}
	}
	if len(r.Keys) > 0 {
		out.Keys = make([][]byte, len(r.Keys))
		for i, k := range r.Keys {
			out.Keys[i] = take(k)
		}
	}
	return out
}

// FilterScan scans the primary index for records whose filter key lies in
// [lo, hi], using component range filters for pruning, and runs fn with
// each, in primary-key order: it walks FilterScanWith's answer, unbounded.
// pk and record are recycled memory of the store's, valid only until fn
// returns: fn copies what it keeps.
func (db *DB) FilterScan(lo, hi int64, fn func(pk, record []byte)) error {
	return db.FilterScanWith(lo, hi, 0, func(res *QueryResult) {
		for _, r := range res.Records {
			fn(r.PK, r.Value)
		}
	})
}

// FilterScanWith is the range-filter scan handing its answer to fn, like
// SecondaryQueryWith (fn runs only when the scan succeeds). Every shard
// scans concurrently; the union's records are sorted in primary-key order
// and then cut to limit when limit > 0, at every shard count. The answer
// is recycled memory of the store's and is valid only until fn returns: fn
// must copy what it keeps and must not modify it. An unbounded scan
// buffers its whole answer; a bounded one copies only records that are
// among each shard's limit smallest keys so far, so it holds at most limit
// records per shard. The network server encodes FILTER_SCAN responses from
// inside fn, straight into its output frame.
func (db *DB) FilterScanWith(lo, hi int64, limit int, fn func(*QueryResult)) error {
	if err := db.acquire(); err != nil {
		return err
	}
	defer db.release()
	return db.filterScan(lo, hi, limit, fn)
}

// Flush forces all memory components to disk and runs due merges, on every
// shard, and drains every pending build and merge, so the store is fully
// quiesced when it returns.
func (db *DB) Flush() error {
	if err := db.acquire(); err != nil {
		return err
	}
	defer db.release()
	return db.fanOutEach(func(_ int, ds *core.Dataset) error { return ds.FlushAll() })
}

// Close drains all pending maintenance (flush builds and merges on every
// shard), stops the maintenance workers, persists the final manifests and
// releases the devices; a store Open put in a temporary directory is then
// removed with it. Close does not flush live memory components: their
// committed writes sit in the on-disk write-ahead log and are replayed at
// the next Open (call Flush first for a replay-free shutdown image).
//
// Close is idempotent and safe for concurrent use: it waits for in-flight
// operations to finish, runs shutdown exactly once, and concurrent or
// repeated closers return nil once that shutdown completes. Afterwards
// every public operation fails with ErrClosed (Stats keeps returning the
// final pre-Close snapshot, and Crash is a no-op).
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	// Capture the last observable state before tearing the devices down;
	// Stats serves it after Close.
	db.finalStats = db.stats()
	db.closed = true
	var errs []error
	if err := db.fanOutEach(func(_ int, ds *core.Dataset) error { return ds.DrainMaintenance() }); err != nil {
		errs = append(errs, err)
	}
	db.helpers.stop() // that was the last fan-out
	db.pool.Close()
	for _, p := range db.parts {
		// The final manifest, and with it the last unlinks. The log needs
		// nothing here: every flush cut it when its manifest landed, and
		// what is left is the un-flushed window the next Open replays.
		if err := p.ds.Persist(); err != nil {
			errs = append(errs, err)
		}
		if err := p.store.Device().Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if db.tempDir != "" {
		if err := os.RemoveAll(db.tempDir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Crash simulates a failure: all memory components are lost; disk
// components survive (no-steal/no-force, Section 2.2 of the paper). Every
// shard fails. Crash on a closed store is a no-op.
func (db *DB) Crash() {
	if err := db.acquire(); err != nil {
		return
	}
	defer db.release()
	_ = db.fanOutEach(func(_ int, ds *core.Dataset) error { ds.Crash(); return nil })
	// After the engine dropped its memory components: cached entries may
	// reflect writes the crash destroyed (internal/readcache invariant 3).
	if db.cache != nil {
		db.cache.InvalidateAll()
	}
}

// Recover replays committed write-ahead-log records lost in a Crash, on
// every shard, decoding the log each shard's device holds — the recovery a
// reopen of the directory runs.
func (db *DB) Recover() error {
	if err := db.acquire(); err != nil {
		return err
	}
	defer db.release()
	err := db.fanOutEach(func(_ int, ds *core.Dataset) error { return ds.Recover() })
	// Replay resurrects writes that were invisible between Crash and
	// Recover, so negative entries cached in that window are now stale.
	if db.cache != nil {
		db.cache.InvalidateAll()
	}
	return err
}

// RepairSecondaryIndexes runs a standalone repair over every component of
// every secondary index (Validation strategy housekeeping), on every shard.
// It runs without the Bloom-filter repair optimization of Section 4.4,
// which is a figure ablation (internal/experiments), not a store option.
func (db *DB) RepairSecondaryIndexes() error {
	if err := db.acquire(); err != nil {
		return err
	}
	defer db.release()
	return db.fanOutEach(repairSecondaries)
}

func repairSecondaries(_ int, ds *core.Dataset) error {
	pk := ds.PKIndex()
	if pk == nil {
		return core.ErrNoPKIndex
	}
	for _, si := range ds.Secondaries() {
		if err := repair.RepairAll(si.Tree, pk, repair.Options{}); err != nil {
			return err
		}
	}
	// Repair rewrites obsolete bitmaps and watermarks; capture them in the
	// manifest.
	return ds.Persist()
}

// Stats summarizes engine state and accumulated costs. The top-level fields
// aggregate over shards (sums, except SimulatedTime, which is the maximum
// because shards progress concurrently on independent devices) and, with
// more than one shard, PerShard holds each shard's own snapshot.
type Stats struct {
	// SimulatedTime is the virtual clock reading (cost-model time): the
	// elapsed time of the partition, i.e. the maximum of the ingest lane
	// and the background maintenance lane, which overlap when the
	// maintenance pool has workers.
	SimulatedTime string
	// IngestTime is the ingest lane's virtual time: the time the write
	// path experienced. It equals SimulatedTime at MaintenanceWorkers 0,
	// where writers run the maintenance jobs themselves; with workers it
	// only absorbs maintenance time at backpressure stalls and drains.
	IngestTime string
	// MaintenanceTime is the background maintenance lane's virtual time
	// ("0s" at MaintenanceWorkers 0).
	MaintenanceTime string
	// Ingested and Ignored count accepted and ignored writes.
	Ingested int64 `prom:"lsm_engine_ingested_total,Records ingested."`
	Ignored  int64 `prom:"lsm_engine_ignored_total,Duplicate inserts ignored."`
	// PrimaryComponents is the primary index's disk-component count.
	PrimaryComponents int `prom:"lsm_engine_primary_components,On-disk primary components across shards."`
	// DiskBytesWritten is total bytes flushed/merged (write amplification).
	DiskBytesWritten int64 `prom:"lsm_engine_disk_bytes_written_total,Bytes written to the storage device."`
	// WALBytes is the size of the retained write-ahead log (the segments no
	// durable flush has covered yet) and ComponentBytes that of the
	// component files the current component lists name: together, what the
	// store needs on the device — the numerator of a live space
	// amplification. RetiredFiles counts files of merged-away components
	// not yet unlinked because a reader still pins them or the manifest
	// dropping their names is not durable yet; a value that only grows
	// means a reader leaked its pin.
	WALBytes       int64 `prom:"lsm_engine_wal_bytes,Bytes of write-ahead log no durable flush covers yet, across shards."`
	ComponentBytes int64 `prom:"lsm_engine_component_bytes,Bytes of the component files the current component lists name, across shards."`
	RetiredFiles   int   `prom:"lsm_engine_retired_files,Files of merged-away components not yet unlinked (pinned by a reader or awaiting the manifest)."`
	// PendingFlushBatches and FrozenMemtables are the flush backlog
	// gauges: frozen flush batches awaiting a builder, and frozen batches
	// total (pending plus building) not yet installed.
	PendingFlushBatches int `prom:"lsm_engine_pending_flush_batches,Frozen batches queued for flush across shards."`
	FrozenMemtables     int `prom:"lsm_engine_frozen_memtables,Frozen memtables not yet installed across shards."`
	// ReadCacheBytes is the memory the read cache holds: its record chunks,
	// never more than Options.ReadCache.Bytes, and its index. Top-level
	// only, like the cache; 0 with the cache off.
	ReadCacheBytes int64 `prom:"lsm_engine_read_cache_bytes,Memory the read cache holds: its record chunks and its index."`
	// Counters snapshots the low-level event counters.
	Counters metrics.Snapshot
	// Maintenance aggregates the maintenance journal: flush/merge counts,
	// durations, bytes and in-flight gauges. Top-level only; per-shard
	// snapshots leave it zero because the journal is store-wide.
	Maintenance obs.JournalSummary `json:",omitzero"`
	// Shards is the hash-partition count.
	Shards int
	// PerShard holds per-shard statistics in shard order; nil with one
	// shard, whose snapshot is the top level itself.
	PerShard []Stats
}

// Stats reports current statistics. After Close it returns the final
// snapshot Close captured.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return db.finalStats
	}
	return db.stats()
}

// MaintJournal returns the store-wide maintenance journal: a ring of the
// last 256 flush/merge events (duration, bytes, component counts,
// per-shard) plus lifetime totals. Recording is observational only — it
// never changes engine behavior or results.
func (db *DB) MaintJournal() *obs.Journal { return db.journal }

// MaintPoolStats reports the maintenance pool's queue depth, executing
// jobs, and worker bound. All zeros at Options.MaintenanceWorkers == 0,
// where nothing queues: writers run the jobs themselves.
func (db *DB) MaintPoolStats() (queued, active, workers int) { return db.pool.Stats() }

// Shard exposes shard i's dataset for advanced use.
func (db *DB) Shard(i int) *core.Dataset { return db.parts[i].ds }
