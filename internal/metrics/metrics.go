// Package metrics provides the virtual clock and calibrated cost model that
// stand in for the paper's wall-clock measurements. Every storage and CPU
// event of interest (page reads, Bloom probes, key comparisons, ...) advances
// a shared virtual clock by a calibrated amount, so experiments report
// "seconds" whose ratios track the paper's testbed without 6-hour runs.
//
// The substitution preserves the paper's shapes because the results are
// driven by random-vs-sequential I/O ratios, cache residency, and in-memory
// search costs, all of which the model reproduces explicitly; the device
// half of the model is described in the internal/storage package doc.
//
// The package also holds the two counter sets every count lives in:
// Counters (engine events, incremented on the hot path) and ServerCounters
// (the network service). A counter set is a struct of atomic.Int64 fields
// with a snapshot twin that declares the same names, in the same order, as
// int64 fields tagged `prom:"name,help"`. Snapshot, Add, Sub and Reset walk
// the fields, and /metrics writes the twin's tags, so a new count is two
// lines: the atomic field and its tagged twin. TestCounterSetsMirror holds
// the two in step.
package metrics

import (
	"reflect"
	"sync/atomic"
	"time"
)

// Clock is a virtual clock. It is safe for concurrent use.
type Clock struct {
	ns atomic.Int64
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Advance moves the clock forward by d (negative d is ignored).
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.ns.Add(int64(d))
	}
}

// AdvanceTo moves the clock forward to at least t (a lane synchronization
// point: a writer that waited for background maintenance observes the
// maintenance lane's time). Earlier times are ignored.
func (c *Clock) AdvanceTo(t time.Duration) {
	for {
		cur := c.ns.Load()
		if int64(t) <= cur || c.ns.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Now returns the current virtual time since the clock was created or reset.
func (c *Clock) Now() time.Duration { return time.Duration(c.ns.Load()) }

// Reset rewinds the clock to zero.
func (c *Clock) Reset() { c.ns.Store(0) }

// CPUCosts calibrates in-memory work. Values approximate a ~2 GHz core with
// ~100 ns main-memory latency, matching the paper's 2.0 GHz Opteron node.
type CPUCosts struct {
	// KeyCompare is one key comparison during a B+-tree page search.
	KeyCompare time.Duration
	// CacheLineMiss is one main-memory access (a Bloom filter bit probe
	// landing outside the CPU cache). A standard Bloom filter pays up to k
	// of these per test; a blocked Bloom filter pays exactly one plus
	// ProbeInBlock for the remaining hashes (Section 3.2).
	CacheLineMiss time.Duration
	// ProbeInBlock is one additional probe within an already-resident block.
	ProbeInBlock time.Duration
	// Hash is one hash computation over a key.
	Hash time.Duration
	// EntryDecode is decoding one entry out of a page.
	EntryDecode time.Duration
	// CacheHit is a buffer-cache page access (latch + locate).
	CacheHit time.Duration
	// SortPerEntry is the per-entry cost of an in-memory sort pass.
	SortPerEntry time.Duration
	// MemtableOp is one skiplist insert/lookup in a memory component.
	MemtableOp time.Duration
	// LogAppend is the cost of logging one write (buffered group commit
	// amortized). It prices what the paper's system writes per write —
	// AsterixDB's update record plus its entity-commit record, two appends
	// of 900 ns — not this repository's log encoding, which needs one
	// record (package wal).
	LogAppend time.Duration
}

// DefaultCPUCosts returns the calibration used by all experiments.
func DefaultCPUCosts() CPUCosts {
	return CPUCosts{
		KeyCompare:    20 * time.Nanosecond,
		CacheLineMiss: 100 * time.Nanosecond,
		ProbeInBlock:  6 * time.Nanosecond,
		Hash:          30 * time.Nanosecond,
		EntryDecode:   40 * time.Nanosecond,
		CacheHit:      1200 * time.Nanosecond,
		SortPerEntry:  150 * time.Nanosecond,
		MemtableOp:    400 * time.Nanosecond,
		LogAppend:     2 * 900 * time.Nanosecond,
	}
}

// Counters aggregates event counts for reporting and assertions in tests.
// It is a counter set; Snapshot is its twin. All methods are safe for
// concurrent use.
type Counters struct {
	RandomReads     atomic.Int64 // disk pages read at random positions
	SequentialReads atomic.Int64 // disk pages read sequentially
	PageBytesRead   atomic.Int64 // page bytes those reads returned
	PagesWritten    atomic.Int64 // disk pages written (always sequential)
	CacheHits       atomic.Int64 // buffer-cache hits
	CacheMisses     atomic.Int64 // buffer-cache misses
	FrameReuses     atomic.Int64 // misses read into a recycled buffer-cache frame
	FrameAllocs     atomic.Int64 // buffer-cache frames allocated, of any size class (none of the class was free, or a device put the page in a buffer of its own)
	PinnedEvictions atomic.Int64 // evictions whose victim a reader still pinned
	BloomTests      atomic.Int64 // Bloom filter membership tests
	BloomNegatives  atomic.Int64 // tests that returned "definitely absent"
	KeyComparisons  atomic.Int64 // B+-tree search comparisons
	PointLookups    atomic.Int64 // primary/pk-index point lookups issued
	EntriesScanned  atomic.Int64 // entries pulled through iterators
	WriteStalls     atomic.Int64 // writes stalled by maintenance backpressure
	WriteStallNanos atomic.Int64 // total wall-clock time writes spent stalled

	// Group-commit durability path (file backend; zero on the simulated
	// device, whose log appends carry no fsync).
	WALFsyncs          atomic.Int64 // fsyncs issued against the WAL area
	GroupCommitBatches atomic.Int64 // commit groups closed by one covering fsync
	GroupCommitWaiters atomic.Int64 // committed writes covered by those groups (mean group size = waiters/batches)

	// Read cache (internal/readcache counts into a Counters of its own; zero
	// when Options.ReadCache is off).
	ReadCacheHits          atomic.Int64 // GETs answered from a cached record
	ReadCacheMisses        atomic.Int64 // GETs that fell through to the engine
	ReadCacheNegHits       atomic.Int64 // GETs answered by a cached known-absent entry
	ReadCacheInvalidations atomic.Int64 // write-path invalidations (per mutated key)
}

// Snapshot is an immutable copy of the counter values. Each field's prom
// tag is its /metrics name and help (obs.PromWriter.Fields).
type Snapshot struct {
	RandomReads     int64 `prom:"lsm_engine_random_reads_total,Pages read at random positions."`
	SequentialReads int64 `prom:"lsm_engine_sequential_reads_total,Pages read sequentially."`
	PageBytesRead   int64 `prom:"lsm_engine_page_bytes_read_total,Page bytes read from the device."`
	PagesWritten    int64 `prom:"lsm_engine_pages_written_total,Pages written."`
	CacheHits       int64 `prom:"lsm_engine_cache_hits_total,Buffer-cache hits."`
	CacheMisses     int64 `prom:"lsm_engine_cache_misses_total,Buffer-cache misses."`
	FrameReuses     int64 `prom:"lsm_buffer_cache_frame_reuses_total,Buffer-cache misses read into a recycled frame."`
	FrameAllocs     int64 `prom:"lsm_buffer_cache_frame_allocs_total,Buffer-cache frames allocated in any size class."`
	PinnedEvictions int64 `prom:"lsm_buffer_cache_pinned_evictions_total,Buffer-cache evictions of a page a reader still pinned."`
	BloomTests      int64 `prom:"lsm_engine_bloom_tests_total,Bloom filter membership tests."`
	BloomNegatives  int64 `prom:"lsm_engine_bloom_negatives_total,Bloom tests answered definitely-absent."`
	KeyComparisons  int64 `prom:"lsm_engine_key_comparisons_total,B+-tree search comparisons."`
	PointLookups    int64 `prom:"lsm_engine_point_lookups_total,Point lookups issued."`
	EntriesScanned  int64 `prom:"lsm_engine_entries_scanned_total,Entries pulled through iterators."`
	WriteStalls     int64 `prom:"lsm_engine_write_stalls_total,Writes stalled by maintenance backpressure."`
	WriteStallNanos int64 `prom:"lsm_engine_write_stall_seconds_total,Total time writes spent stalled."`

	WALFsyncs          int64 `prom:"lsm_engine_wal_fsyncs_total,Fsyncs issued against the WAL area."`
	GroupCommitBatches int64 `prom:"lsm_engine_group_commit_batches_total,Commit groups closed by one covering fsync."`
	GroupCommitWaiters int64 `prom:"lsm_engine_group_commit_waiters_total,Committed writes covered by commit groups."`

	ReadCacheHits          int64 `prom:"lsm_engine_read_cache_hits_total,GETs answered from the read cache."`
	ReadCacheMisses        int64 `prom:"lsm_engine_read_cache_misses_total,GETs that fell through the read cache."`
	ReadCacheNegHits       int64 `prom:"lsm_engine_read_cache_neg_hits_total,GETs answered by a cached known-absent entry."`
	ReadCacheInvalidations int64 `prom:"lsm_engine_read_cache_invalidations_total,Write-path read-cache invalidations."`
}

// Snapshot captures the current counter values.
func (c *Counters) Snapshot() Snapshot { return load[Snapshot](c) }

// Add returns s plus o, for aggregating counters across shards or runs.
func (s Snapshot) Add(o Snapshot) Snapshot { return combine(s, o, 1) }

// Sub returns s minus o, for measuring a bounded region of work.
func (s Snapshot) Sub(o Snapshot) Snapshot { return combine(s, o, -1) }

// Reset zeroes all counters.
func (c *Counters) Reset() { each(c, func(_ int, a *atomic.Int64) { a.Store(0) }) }

// ServerCounters aggregates network-service events for the lsmserver
// front-end: connections, requests and failures. It is a counter set;
// ServerSnapshot is its twin. All fields are safe for concurrent use.
//
// CoalescedBatches and CoalescedWrites are retired, always 0; kept for
// bench/trace.go until ROADMAP 1(e).
type ServerCounters struct {
	Connections      atomic.Int64 // connections accepted since start
	ActiveConns      atomic.Int64 // connections currently open
	Requests         atomic.Int64 // requests decoded and dispatched
	Errors           atomic.Int64 // requests answered with an error frame
	CoalescedBatches atomic.Int64 // retired, always 0; kept for bench/trace.go until ROADMAP 1(e)
	CoalescedWrites  atomic.Int64 // retired, always 0; kept for bench/trace.go until ROADMAP 1(e)
}

// ServerSnapshot is an immutable copy of the server counter values, tagged
// like Snapshot.
type ServerSnapshot struct {
	Connections      int64 `prom:"lsm_connections_total,Connections accepted since start."`
	ActiveConns      int64 `prom:"lsm_active_connections,Connections currently open."`
	Requests         int64 `prom:"lsm_requests_total,Requests decoded and dispatched."`
	Errors           int64 `prom:"lsm_request_errors_total,Requests answered with an error frame."`
	CoalescedBatches int64 `prom:"lsm_coalesced_batches_total,Retired, always 0; kept for bench/trace.go until ROADMAP 1(e)."`
	CoalescedWrites  int64 `prom:"lsm_coalesced_writes_total,Retired, always 0; kept for bench/trace.go until ROADMAP 1(e)."`
}

// Snapshot captures the current server counter values.
func (c *ServerCounters) Snapshot() ServerSnapshot { return load[ServerSnapshot](c) }

// Sub returns s minus o, for interval deltas across two /stats fetches.
func (s ServerSnapshot) Sub(o ServerSnapshot) ServerSnapshot { return combine(s, o, -1) }

// each calls f with every field of the counter set *c and its position.
func each(c any, f func(i int, a *atomic.Int64)) {
	v := reflect.ValueOf(c).Elem()
	for i := range v.NumField() {
		f(i, v.Field(i).Addr().Interface().(*atomic.Int64))
	}
}

// load returns the snapshot twin S of the counter set *c.
func load[S any](c any) (s S) {
	sv := reflect.ValueOf(&s).Elem()
	each(c, func(i int, a *atomic.Int64) { sv.Field(i).SetInt(a.Load()) })
	return s
}

// combine returns a + sign·b, field by field, for a snapshot type.
func combine[S any](a, b S, sign int64) S {
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := range av.NumField() {
		av.Field(i).SetInt(av.Field(i).Int() + sign*bv.Field(i).Int())
	}
	return a
}

// Env bundles the clock, cost model and counters that thread through the
// whole engine. A zero-cost Env (NopEnv) disables accounting for tests that
// only care about functional behaviour.
type Env struct {
	Clock    *Clock
	CPU      CPUCosts
	Counters *Counters
}

// NewEnv returns an Env with a fresh clock, default CPU costs, and counters.
func NewEnv() *Env {
	return &Env{Clock: NewClock(), CPU: DefaultCPUCosts(), Counters: &Counters{}}
}

// NopEnv returns an Env whose costs are all zero (accounting still counts).
func NopEnv() *Env {
	return &Env{Clock: NewClock(), CPU: CPUCosts{}, Counters: &Counters{}}
}

// BackgroundLane derives an Env for background maintenance I/O: it shares
// the cost model and counters (event totals stay global) but advances its
// own clock, modelling a maintenance channel that overlaps the ingest path.
// The two lanes couple at synchronization points — backpressure stalls and
// drains — via Clock.AdvanceTo.
func (e *Env) BackgroundLane() *Env {
	return &Env{Clock: NewClock(), CPU: e.CPU, Counters: e.Counters}
}

// ChargeCompare records n key comparisons.
func (e *Env) ChargeCompare(n int) {
	e.Counters.KeyComparisons.Add(int64(n))
	e.Clock.Advance(time.Duration(n) * e.CPU.KeyCompare)
}

// ChargeDecode records n entry decodes.
func (e *Env) ChargeDecode(n int) {
	e.Clock.Advance(time.Duration(n) * e.CPU.EntryDecode)
}

// ChargeSort records an in-memory sort of n entries (n log n comparisons
// folded into a calibrated per-entry constant).
func (e *Env) ChargeSort(n int) {
	e.Clock.Advance(time.Duration(n) * e.CPU.SortPerEntry)
}

// ChargeMemtable records one memory-component operation.
func (e *Env) ChargeMemtable() { e.Clock.Advance(e.CPU.MemtableOp) }

// ChargeLogAppend records one logged write.
func (e *Env) ChargeLogAppend() { e.Clock.Advance(e.CPU.LogAppend) }
