// Package lsmstore is the public API of this repository: a general-purpose
// LSM-based storage engine with secondary indexes and range filters,
// implementing the ingestion and query-processing techniques of Luo &
// Carey, "Efficient Data Ingestion and Query Processing for LSM-Based
// Storage Systems" (PVLDB 12(5), 2019).
//
// A DB routes over one or more dataset partitions, each backed by a
// simulated disk with an explicit I/O cost model (see the internal/metrics
// and internal/storage package docs) or by real files, holding a primary
// LSM index, an optional primary key index, and any number of secondary
// indexes that share a memory budget. The maintenance strategy for
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
// concurrently; SecondaryQuery and FilterScan fan out to every shard, one
// goroutine each, and merge the answers in primary-key order; Flush, Crash,
// Recover, RepairSecondaryIndexes and Stats apply to (or aggregate over)
// all shards. One shard is the N = 1 case of the same code, not a second
// program: fan-outs run on the caller's goroutine, a batch is not
// regrouped, and FilterScan streams instead of buffering.
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

// Backend selects the storage backend beneath a DB.
type Backend int

// Backends.
const (
	// SimBackend (the default) runs on the simulated in-memory device.
	// Nothing survives process exit; crash/recovery is simulated
	// (Crash/Recover).
	SimBackend Backend = iota
	// FileBackend runs on real files under Options.Dir: batched appends,
	// fsync on WAL commit and component install, and a manifest that lets
	// Open reopen the directory — after a clean Close or a crash — and
	// continue serving every committed write. The Store charges the same
	// HDD device model against the access pattern as on SimBackend, so the
	// counters and virtual clocks match it; wall-clock time is the
	// separate, real measure of the files.
	FileBackend
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case SimBackend:
		return "sim"
	case FileBackend:
		return "disk"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// SecondaryIndex declares one secondary index.
type SecondaryIndex struct {
	// Name identifies the index in SecondaryQuery calls.
	Name string
	// Extract returns the secondary key of a record, or false when the
	// record carries none.
	Extract func(record []byte) ([]byte, bool)
}

// Options configures a DB. The zero value gives an Eager-strategy store on
// a simulated HDD with a 64 MB buffer cache, a 4 MB memory budget, tiering
// merges and a primary key index. What a DB lets a caller choose is the
// schema (Strategy, Secondaries, FilterExtract), where the data lives
// (Backend, Dir, Shards, PageSize), its budgets (CacheBytes, MemoryBudget,
// MaintenanceWorkers, ReadCache), MergeRepair, Seed and two hooks that let
// a test substitute a fake. Everything else is fixed: the write-ahead log is
// always on, and on the file backend it commits through a group (concurrent
// committers share one covering fsync, an ApplyBatch pays one per batch, and
// no write is acknowledged before the fsync covering its log record
// returns) whose leader waits only for an fsync already in flight;
// Mutable-bitmap merges use the Side-file method; and the maintenance
// journal keeps the last 256 events. The paper's ablations (no primary key
// index, correlated merges, the Bloom-filter repair optimization, blocked
// Bloom filters, no merges, the other concurrency-control methods, the SSD
// profile, no log) are core.Config and storage settings that
// internal/experiments sets directly; they are not options of a DB.
type Options struct {
	// Strategy is the maintenance strategy for secondary indexes and
	// filters.
	Strategy Strategy
	// Secondaries declares secondary indexes.
	Secondaries []SecondaryIndex
	// FilterExtract, when set, maintains a component-level range filter
	// over the extracted value (e.g. a creation timestamp).
	FilterExtract func(record []byte) (int64, bool)
	// Backend selects the storage backend: the simulated device (default)
	// or real files under Dir.
	Backend Backend
	// Dir is the data directory of the file backend (required for
	// FileBackend, ignored otherwise). Each shard keeps its own
	// subdirectory; reopening an existing directory restores all committed
	// data and requires the same Shards, PageSize and Strategy it was
	// written with.
	Dir string
	// PageSize overrides the device page size (testing).
	PageSize int
	// CacheBytes sizes the buffer cache (2 GB HDD / 4 GB SSD in the
	// paper; defaults to 64 MB here to match scaled-down datasets).
	CacheBytes int64
	// MemoryBudget is the shared memory-component budget (default 4 MB).
	MemoryBudget int
	// MergeRepair repairs secondary indexes during merges (Validation).
	MergeRepair bool
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
	// opened device; the returned device is used in its place. On the file
	// backend the inner device is a storage.Durable and the wrapper must
	// return one: Open refuses a shard whose wrapper dropped the durable
	// half rather than run it without a manifest and a log.
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

// Open creates an empty DB or, with Options.Backend = FileBackend and an
// existing Options.Dir, reopens a previously written store: component
// files are restored from the per-shard manifests, the on-disk write-ahead
// logs are replayed, and every committed write — whether the previous
// process Closed cleanly or crashed — is served again.
func Open(opts Options) (*DB, error) {
	if opts.Backend == FileBackend {
		if opts.Dir == "" {
			return nil, errors.New("lsmstore: FileBackend requires Options.Dir")
		}
		if err := checkLayout(opts); err != nil {
			return nil, err
		}
	}
	pool := maint.NewPool(opts.MaintenanceWorkers)
	pool.SetYield(opts.Yield)
	journal := obs.NewJournal(0) // the default ring: 256 events
	parts, err := openPartitions(opts, pool, journal)
	if err != nil {
		pool.Close()
		return nil, err
	}
	return &DB{parts: parts, pool: pool, cache: newReadCache(opts), journal: journal}, nil
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
func openPartitions(opts Options, pool *maint.Pool, journal *obs.Journal) ([]partition, error) {
	n := max(opts.Shards, 1)
	per := opts
	per.CacheBytes = resolveCacheBytes(opts)
	if n > 1 {
		per.CacheBytes /= int64(n)
		if minCache := int64(8 * resolvePageSize(opts)); per.CacheBytes < minCache {
			per.CacheBytes = minCache
		}
	}
	parts := make([]partition, n)
	for i := range parts {
		po := per
		// Distinct seeds keep per-shard memtable shapes independent while
		// staying deterministic for a given (Seed, Shards) pair.
		po.Seed = opts.Seed + int64(i)*101
		p, err := openPartition(po, pool, journal, i)
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
	return storage.HDD().PageSize
}

// openPartition opens shard idx.
func openPartition(opts Options, pool *maint.Pool, journal *obs.Journal, idx int) (partition, error) {
	env := metrics.NewEnv()
	profile := storage.HDD()
	if opts.PageSize > 0 {
		profile = storage.ScaledHDD(opts.PageSize)
	}
	var dev storage.Device
	if opts.Backend == FileBackend {
		fd, err := filedev.Open(shardDir(opts.Dir, idx), profile)
		if err != nil {
			return partition{}, err
		}
		fd.AttachCounters(env.Counters)
		dev = fd
	} else {
		dev = storage.NewDisk(profile)
	}
	if opts.WrapDevice != nil {
		dev = opts.WrapDevice(idx, dev)
	}
	store := storage.NewStore(dev, resolveCacheBytes(opts), env)

	cfg := core.Config{
		Store:         store,
		Strategy:      opts.Strategy,
		FilterExtract: opts.FilterExtract,
		MemoryBudget:  opts.MemoryBudget,
		UsePKIndex:    true,
		MergeRepair:   opts.MergeRepair,
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
	if err == nil && opts.Backend == FileBackend && !ds.Durable() {
		err = fmt.Errorf("lsmstore: Options.WrapDevice returned a device for shard %d that is not a storage.Durable: the shard would keep no manifest and no log", idx)
	}
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
// writes). Entries after a shard's first error are left false. The network
// server's write coalescer uses this to answer each coalesced Insert and
// Delete individually.
func (db *DB) ApplyBatchResults(muts []Mutation) ([]bool, error) {
	if err := db.acquire(); err != nil {
		return nil, err
	}
	defer db.release()
	applied := make([]bool, len(muts))
	return applied, db.applyBatch(muts, applied)
}

// NumShards returns the number of hash partitions.
func (db *DB) NumShards() int { return len(db.parts) }

// QueryOptions configures a secondary-index query.
type QueryOptions struct {
	// Validation selects the validation method; required (non-
	// NoValidation) for lazy strategies.
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
// answer are sub-slices of a few shared backing arrays, embedded and over
// the wire alike: they are the caller's to read and keep, but keeping one
// keeps its neighbours' bytes alive, so copy what must outlive the answer.
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
// index. Results are in primary-key order, on every shard count.
func (db *DB) SecondaryQuery(index string, lo, hi []byte, opts QueryOptions) (*QueryResult, error) {
	if err := db.acquire(); err != nil {
		return nil, err
	}
	defer db.release()
	switch {
	case !opts.Validation.Valid():
		return nil, fmt.Errorf("%w: validation method %d out of range", ErrBadQuery, opts.Validation)
	case opts.IndexOnly && opts.Validation == DirectValidation:
		return nil, fmt.Errorf("%w: index-only with direct validation", ErrBadQuery)
	case db.parts[0].ds.Secondary(index) == nil: // every partition declares the same indexes
		return nil, fmt.Errorf("%w: %q", ErrUnknownIndex, index)
	}
	return db.secondaryQuery(index, lo, hi, query.SecondaryQueryOptions{
		Validation: opts.Validation,
		IndexOnly:  opts.IndexOnly,
		Lookup:     query.DefaultLookupConfig(),
	}, opts.Limit)
}

// FilterScan scans the primary index for records whose filter key lies in
// [lo, hi], using component range filters for pruning. Every shard scans
// concurrently and the union is emitted in primary-key order from the
// caller's goroutine; a one-shard store streams its scan without buffering,
// so pk and record may be a pinned buffer-cache page's bytes: they are valid
// only until fn returns, and fn copies what it keeps.
func (db *DB) FilterScan(lo, hi int64, fn func(pk, record []byte)) error {
	if err := db.acquire(); err != nil {
		return err
	}
	defer db.release()
	return db.filterScan(lo, hi, fn)
}

// Flush forces all memory components to disk and runs due merges, on every
// shard, and drains every pending build and merge, so the store is fully
// quiesced when it returns.
func (db *DB) Flush() error {
	if err := db.acquire(); err != nil {
		return err
	}
	defer db.release()
	return db.fanOut(nil, func(_ int, ds *core.Dataset) error { return ds.FlushAll() })
}

// Close drains all pending maintenance (flush builds and merges on every
// shard), stops the maintenance workers, and — on the file
// backend — persists the final manifests and releases the devices. It does
// not flush live memory components: their committed writes sit in the
// on-disk write-ahead log and are replayed at the next Open (call Flush
// first for a replay-free shutdown image).
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
	if err := db.fanOut(nil, func(_ int, ds *core.Dataset) error { return ds.DrainMaintenance() }); err != nil {
		errs = append(errs, err)
	}
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
	_ = db.fanOut(nil, func(_ int, ds *core.Dataset) error { ds.Crash(); return nil })
	// After the engine dropped its memory components: cached entries may
	// reflect writes the crash destroyed (internal/readcache invariant 3).
	if db.cache != nil {
		db.cache.InvalidateAll()
	}
}

// Recover replays committed write-ahead-log records lost in a Crash, on
// every shard.
func (db *DB) Recover() error {
	if err := db.acquire(); err != nil {
		return err
	}
	defer db.release()
	err := db.fanOut(nil, func(_ int, ds *core.Dataset) error { return ds.Recover() })
	// Replay resurrects writes that were invisible between Crash and
	// Recover, so negative entries cached in that window are now stale.
	if db.cache != nil {
		db.cache.InvalidateAll()
	}
	return err
}

// RepairSecondaryIndexes runs a standalone repair over every component of
// every secondary index (Validation strategy housekeeping), on every shard.
func (db *DB) RepairSecondaryIndexes() error {
	if err := db.acquire(); err != nil {
		return err
	}
	defer db.release()
	return db.fanOut(nil, repairSecondaries)
}

func repairSecondaries(_ int, ds *core.Dataset) error {
	pk := ds.PKIndex()
	if pk == nil {
		return core.ErrNoPKIndex
	}
	for _, si := range ds.Secondaries() {
		if err := repair.RepairAll(si.Tree, pk, repair.Options{UseBloom: ds.Config().RepairBloomOpt}); err != nil {
			return err
		}
	}
	// Repair rewrites obsolete bitmaps and watermarks; capture them in the
	// manifest (no-op on the simulated backend).
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
	Ingested, Ignored int64
	// PrimaryComponents is the primary index's disk-component count.
	PrimaryComponents int
	// DiskBytesWritten is total bytes flushed/merged (write amplification).
	DiskBytesWritten int64
	// WALBytes is the size of the retained write-ahead log (the segments no
	// durable flush has covered yet) and ComponentBytes that of the
	// component files the current component lists name: together, what the
	// store needs on the device — the numerator of a live space
	// amplification. RetiredFiles counts files of merged-away components
	// not yet unlinked because a reader still pins them or the manifest
	// dropping their names is not durable yet; a value that only grows
	// means a reader leaked its pin.
	WALBytes       int64
	ComponentBytes int64
	RetiredFiles   int
	// PendingFlushBatches and FrozenMemtables are the flush backlog
	// gauges: frozen flush batches awaiting a builder, and frozen batches
	// total (pending plus building) not yet installed.
	PendingFlushBatches int
	FrozenMemtables     int
	// ReadCacheBytes is the memory the read cache holds: its record chunks,
	// never more than Options.ReadCache.Bytes, and its index. Top-level
	// only, like the cache; 0 with the cache off.
	ReadCacheBytes int64
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

// SetMergeGate installs a dispatch gate called before each merge job runs
// (nil clears it). The server's admission governor uses it to throttle
// merge I/O against foreground latency; flush jobs are never gated, and
// neither is anything at Options.MaintenanceWorkers == 0, where the merge
// runs on a writer the gate must not block. Gating changes merge timing
// only, never results — see TestMergeGateObservationalOnly.
func (db *DB) SetMergeGate(gate func()) { db.pool.SetGate(gate) }

// Shard exposes shard i's dataset for advanced use.
func (db *DB) Shard(i int) *core.Dataset { return db.parts[i].ds }
