// Package core implements the paper's storage architecture (Section 3,
// Figure 1): a dataset with a primary LSM index, a primary key LSM index,
// and a set of secondary LSM indexes that share one memory budget and are
// flushed together. On top of it, the package implements every maintenance
// strategy the paper describes or evaluates:
//
//   - Eager (Section 3.1): each write is prefaced by a point lookup; filters
//     and secondary indexes are maintained with anti-matter immediately.
//   - Validation (Section 4): blind writes with timestamps; secondary
//     indexes cleaned lazily by index repair (see internal/repair).
//   - Mutable-bitmap (Section 5): deletes flip validity bits on immutable
//     disk components via the primary key index, with the Lock or Side-file
//     concurrency-control method for concurrent flush/merge.
//   - Deleted-key B+-tree (Section 4.1): AsterixDB's baseline that attaches
//     a deleted-key B+-tree to every secondary index component.
//
// The Eager/Validation/Mutable-bitmap upsert examples of Figures 3, 4 and 9
// are reproduced verbatim by this package's tests.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bloom"
	"repro/internal/kv"
	"repro/internal/lsm"
	"repro/internal/maint"
	"repro/internal/memtable"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Strategy selects the maintenance strategy for auxiliary structures.
type Strategy int

// Maintenance strategies.
const (
	// Eager maintains secondary indexes and filters with a point lookup
	// before every write (AsterixDB/MyRocks/Phoenix default).
	Eager Strategy = iota
	// Validation inserts blindly and cleans secondary indexes lazily.
	Validation
	// MutableBitmap marks deletes directly on disk components' bitmaps via
	// the primary key index; secondary indexes use Validation.
	MutableBitmap
	// DeletedKey is AsterixDB's deleted-key B+-tree strategy.
	DeletedKey
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Eager:
		return "eager"
	case Validation:
		return "validation"
	case MutableBitmap:
		return "mutable-bitmap"
	case DeletedKey:
		return "deleted-key"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// CCMethod selects the concurrency-control method used by the
// Mutable-bitmap strategy for concurrent flush/merge (Section 5.3).
type CCMethod int

// Concurrency-control methods.
const (
	// SideFile buffers concurrent deletes in a side-file and applies them
	// after the new component is built (Fig 11).
	SideFile CCMethod = iota
	// Lock S-locks each scanned key during the build (Fig 10).
	Lock
	// NoCC disables concurrency control (baseline in Fig 23; only safe
	// when no writers run concurrently with merges).
	NoCC
)

// String implements fmt.Stringer.
func (m CCMethod) String() string {
	switch m {
	case SideFile:
		return "side-file"
	case Lock:
		return "lock"
	case NoCC:
		return "baseline"
	}
	return fmt.Sprintf("cc(%d)", int(m))
}

// SecondarySpec declares one secondary index.
type SecondarySpec struct {
	// Name labels the index.
	Name string
	// Extract returns the secondary key of a record, or false when the
	// record has none (it is then skipped by this index).
	Extract func(record []byte) ([]byte, bool)
}

// Config configures a dataset.
type Config struct {
	// Store is the shared disk + buffer cache.
	Store *storage.Store
	// Strategy selects the maintenance strategy.
	Strategy Strategy
	// CC selects the Mutable-bitmap concurrency-control method.
	CC CCMethod
	// Secondaries declares the dataset's secondary indexes.
	Secondaries []SecondarySpec
	// FilterExtract returns the range-filter key of a record (the tweet
	// generator uses creation time). Nil disables the primary range filter.
	FilterExtract func(record []byte) (int64, bool)
	// MemoryBudget is the shared memory-component budget in bytes
	// (128 MB per dataset in the paper); all indexes flush together when
	// their combined footprint (memtable.Table.Bytes: every overwrite is
	// charged) exceeds it.
	MemoryBudget int
	// UsePKIndex builds the primary key index. Insert uniqueness checks
	// and Validation/Mutable-bitmap maintenance use it; without it (a
	// Figure 13 ablation) checks fall back to the primary index.
	UsePKIndex bool
	// Policy schedules merges (the paper: tiering, ratio 1.2, 1 GB cap).
	// Nil disables merging.
	Policy lsm.Policy
	// CorrelatedMerges synchronizes merges of all the dataset's indexes
	// (Section 4.4); required by RepairBloomOpt and by MutableBitmap.
	CorrelatedMerges bool
	// MergeRepair repairs secondary indexes during their merges
	// (Validation strategy, Section 4.4).
	MergeRepair bool
	// RepairBloomOpt enables the Bloom-filter repair optimization
	// (Section 4.4); requires CorrelatedMerges.
	RepairBloomOpt bool
	// BloomFPR is the Bloom filter false-positive rate (1% in the paper).
	BloomFPR float64
	// Bloom selects the filter variant of the primary and pk-index trees:
	// the paper's Standard (default) or Blocked (Section 3.2) cost-model
	// variants, or the runtime split-block bloom.KindV2, which is written
	// into each component's file so reopen skips the rebuild-by-scan.
	Bloom bloom.Kind
	// DisableWAL turns off write-ahead logging (benchmarks that measure
	// pure ingestion I/O).
	DisableWAL bool
	// Seed makes memtable shapes deterministic.
	Seed int64
	// Maintenance is the pool that runs the flush pipeline's jobs — the
	// disk-component builds of frozen memtables and every policy-picked
	// merge. Writes only freeze the memory components and submit. Nil (the
	// default) is the run-on-caller pool: the write that crosses the memory
	// budget runs the build and all due merges itself before it returns,
	// and all maintenance I/O charges the ingest lane.
	Maintenance *maint.Pool
	// MaxFrozenMemtables bounds the frozen flush batches awaiting builds
	// before writers soft-stall (backpressure). 0 means the default of 4.
	// With run-on-caller maintenance the bound is reached only by writers
	// racing the one that is building.
	MaxFrozenMemtables int
	// Yield, when non-nil, is the deterministic-simulation scheduling hook:
	// it is invoked at the instrumented points in the WAL commit path
	// (see wal.Log.SetYield) with a label naming the point. Nil (the
	// default) leaves scheduling to the runtime.
	Yield func(point string)
	// Journal, when bound, records flush and merge start/end events
	// (duration, bytes written, input/output component counts) into the
	// store-wide maintenance journal served at /debug/maintenance. The zero
	// value disables recording; events never feed back into engine behavior.
	Journal obs.ShardJournal
}

// SecondaryIndex is one secondary index of a dataset.
type SecondaryIndex struct {
	Spec SecondarySpec
	Tree *lsm.Tree

	// mu guards memDeleted and pendingDeleted, the deleted-key
	// accumulators of the DeletedKey strategy.
	mu         sync.Mutex
	memDeleted map[string]int64 // pk -> delete timestamp (current memtable)
	// pendingDeleted holds accumulators frozen by in-flight flushes
	// (oldest to newest): their deletes stay visible to query
	// validation until the deleted-key B+-tree of the flushed component is
	// installed.
	pendingDeleted []*frozenDeleted
}

// frozenDeleted is one deleted-key accumulator frozen by a flush,
// addressable by pointer so its batch can release it after install.
type frozenDeleted struct {
	m map[string]int64
}

// Dataset is one partition of a dataset: the unit all of the paper's
// experiments run against (Section 6.1 uses a single partition; scaling
// across partitions is near-linear because both ingestion and queries are
// partition-local).
type Dataset struct {
	cfg Config
	env *metrics.Env
	// durable is the store's device when it is a storage.Durable (it keeps a
	// manifest), nil on the simulated one the figures run on: Open asserts
	// once, everything after reads the field.
	durable storage.Durable

	primary     *lsm.Tree
	pkIndex     *lsm.Tree
	secondaries []*SecondaryIndex

	clock  atomic.Int64 // ingestion timestamp generator (node-local clock)
	epoch  atomic.Uint64
	locks  *lockManager
	dsLock *datasetLock
	log    *wal.Log

	// trees lists every LSM index under its manifest name: the primary,
	// the pk index when there is one, then the secondaries.
	trees []namedTree

	// persistMu serializes manifest saves, so a later component-list
	// snapshot is never overwritten by an earlier one, and the unlinks that
	// follow them. Under it: named is the file set of the durable manifest
	// (nil on a non-durable device), where a retired file must wait;
	// naming is the set the save in progress fills, swapped with named
	// once it is durable. manifest, comps and retired are the saves'
	// reused scratch: the record, one tree's component list and one
	// tree's retired files.
	persistMu sync.Mutex
	named     map[storage.FileID]bool
	naming    map[storage.FileID]bool
	manifest  []byte
	comps     []*lsm.Component
	retired   []storage.FileID
	// unsafeEarlyUnlink and unsafeEarlyCut re-arm ordering bugs for the
	// simulation corpus; see SetUnsafeReclaimBeforePersist.
	unsafeEarlyUnlink, unsafeEarlyCut atomic.Bool
	// crashMu makes multi-tree installs (flush batches, the paired
	// primary/pk merge) atomic with respect to Crash, so a simulated
	// failure can never observe a half-installed batch.
	crashMu sync.Mutex
	// maint is the flush pipeline's scheduling state over the pool.
	maint *maintState
	// pickComps and pickSizes are pickFor's reused scratch: one tree's
	// component list and its sizes. Merge passes run one at a time per
	// dataset (maintState.merging), so nothing shares them.
	pickComps []*lsm.Component
	pickSizes []int64
	// bgEnv/bgStore are the background maintenance I/O lane: a clock of
	// its own over the same disk, cache, cost model and counters. Flush
	// builds and merges charge this lane — it is every tree's
	// lsm.Options.Lane, set once in Open — modelling maintenance that
	// overlaps the ingest path; the lanes couple at backpressure stalls
	// and drains. When the pool runs jobs on the caller, bgEnv is nil and
	// bgStore is cfg.Store: maintenance then charges the ingest lane.
	bgEnv   *metrics.Env
	bgStore *storage.Store

	// stats
	ingested atomic.Int64
	ignored  atomic.Int64
}

// ErrNoPKIndex reports an operation that requires the primary key index.
var ErrNoPKIndex = errors.New("core: operation requires the primary key index")

// Open creates an empty dataset.
func Open(cfg Config) (*Dataset, error) {
	if cfg.Store == nil {
		return nil, errors.New("core: Config.Store is required")
	}
	if cfg.MemoryBudget <= 0 {
		cfg.MemoryBudget = 4 << 20
	}
	if cfg.MemoryBudget > memtable.MaxBudget {
		return nil, fmt.Errorf("core: MemoryBudget %d is over the %d a memory component can address", cfg.MemoryBudget, memtable.MaxBudget)
	}
	if cfg.Strategy == MutableBitmap && !cfg.UsePKIndex {
		return nil, errors.New("core: the Mutable-bitmap strategy requires the primary key index")
	}
	if cfg.Strategy == MutableBitmap {
		// The merges of the primary index and the primary key index must
		// be synchronized so their components can share bitmaps
		// (Section 5.1).
		cfg.CorrelatedMerges = true
	}
	if cfg.RepairBloomOpt && !cfg.CorrelatedMerges {
		return nil, errors.New("core: the Bloom-filter repair optimization requires correlated merges")
	}
	// Secondary names key the durable manifest (and Secondary lookups), so
	// the reserved primary/pk tree names and duplicates must be rejected —
	// a collision would restore one index's component files into another.
	seenNames := make(map[string]bool, len(cfg.Secondaries))
	for _, s := range cfg.Secondaries {
		if s.Name == "" || s.Name == manifestPrimary || s.Name == manifestPKIndex {
			return nil, fmt.Errorf("core: secondary index name %q is empty or reserved", s.Name)
		}
		if len(s.Name) > maxTreeName {
			return nil, fmt.Errorf("core: secondary index name of %d bytes is longer than the manifest's %d", len(s.Name), maxTreeName)
		}
		if seenNames[s.Name] {
			return nil, fmt.Errorf("core: duplicate secondary index name %q", s.Name)
		}
		seenNames[s.Name] = true
	}
	env := cfg.Store.Env()
	d := &Dataset{
		cfg:    cfg,
		env:    env,
		locks:  newLockManager(),
		dsLock: &datasetLock{},
	}
	d.durable, _ = cfg.Store.Device().(storage.Durable)
	pool := cfg.Maintenance
	if pool == nil {
		pool = maint.NewPool(0)
	}
	d.bgStore = cfg.Store
	if pool.Workers() > 0 {
		d.bgEnv = env.BackgroundLane()
		d.bgStore = cfg.Store.WithEnv(d.bgEnv)
	}
	mutable := cfg.Strategy == MutableBitmap
	d.primary = lsm.New(lsm.Options{
		Name:     "primary",
		Store:    cfg.Store,
		Lane:     d.bgStore,
		BloomFPR: cfg.BloomFPR,
		Bloom:    cfg.Bloom,
		FilterExtract: func(e kv.Entry) (int64, bool) {
			if cfg.FilterExtract == nil || e.Anti {
				return 0, false
			}
			return cfg.FilterExtract(e.Value)
		},
		MutableBitmaps: mutable,
		Seed:           cfg.Seed + 1,
		OnRetire:       d.scheduleReclaim,
	})
	if cfg.UsePKIndex {
		d.pkIndex = lsm.New(lsm.Options{
			Name:           "pk-index",
			Store:          cfg.Store,
			Lane:           d.bgStore,
			BloomFPR:       cfg.BloomFPR,
			Bloom:          cfg.Bloom,
			MutableBitmaps: mutable,
			Seed:           cfg.Seed + 2,
			OnRetire:       d.scheduleReclaim,
		})
	}
	for i, spec := range cfg.Secondaries {
		si := &SecondaryIndex{
			Spec: spec,
			Tree: lsm.New(lsm.Options{
				Name:  spec.Name,
				Store: cfg.Store,
				Lane:  d.bgStore,
				// Secondary index searches are range scans; Bloom filters
				// are not consulted, so none are built.
				Seed:     cfg.Seed + 10 + int64(i),
				OnRetire: d.scheduleReclaim,
			}),
		}
		if cfg.Strategy == DeletedKey {
			si.memDeleted = make(map[string]int64)
		}
		d.secondaries = append(d.secondaries, si)
	}
	d.trees = append(d.trees, namedTree{name: manifestPrimary, tree: d.primary})
	if d.pkIndex != nil {
		d.trees = append(d.trees, namedTree{name: manifestPKIndex, tree: d.pkIndex, sharedValid: mutable})
	}
	for _, si := range d.secondaries {
		d.trees = append(d.trees, namedTree{name: si.Spec.Name, tree: si.Tree})
	}
	// On a durable device, restore a previous session's components and drop
	// files a crash left unreferenced. Then open the log over the device's
	// log area and replay what it holds (the dataset serves no traffic yet,
	// so replay needs no coordination): nothing on the simulated device,
	// whatever the last session left on files.
	if err := d.restore(); err != nil {
		return nil, err
	}
	if err := d.openLog(); err != nil {
		return nil, err
	}
	d.maint = newMaintState(pool)
	return d, nil
}

// NextTS draws the next ingestion timestamp from the node-local clock.
func (d *Dataset) NextTS() int64 { return d.clock.Add(1) }

// CurrentTS returns the most recently issued timestamp.
func (d *Dataset) CurrentTS() int64 { return d.clock.Load() }

// Primary returns the primary index.
func (d *Dataset) Primary() *lsm.Tree { return d.primary }

// PKIndex returns the primary key index (nil when disabled).
func (d *Dataset) PKIndex() *lsm.Tree { return d.pkIndex }

// Secondaries returns the dataset's secondary indexes.
func (d *Dataset) Secondaries() []*SecondaryIndex { return d.secondaries }

// Secondary returns the secondary index with the given name.
func (d *Dataset) Secondary(name string) *SecondaryIndex {
	for _, si := range d.secondaries {
		if si.Spec.Name == name {
			return si
		}
	}
	return nil
}

// Env returns the dataset's metrics environment.
func (d *Dataset) Env() *metrics.Env { return d.env }

// MaintGauges reports the flush backlog: batches frozen but not yet picked
// up by a builder, and frozen batches total (pending plus building)
// awaiting install.
func (d *Dataset) MaintGauges() (pendingFlushBatches, frozenMemtables int) {
	m := d.maint
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending), m.frozen
}

// MaintSimTime returns the background maintenance lane's virtual time
// (zero when maintenance runs on the caller). The dataset's elapsed
// simulated time is max(Env().Clock.Now(), MaintSimTime()).
func (d *Dataset) MaintSimTime() time.Duration {
	if d.bgEnv == nil {
		return 0
	}
	return d.bgEnv.Clock.Now()
}

// Config returns the dataset's configuration.
func (d *Dataset) Config() Config { return d.cfg }

// Log returns the write-ahead log (nil when disabled).
func (d *Dataset) Log() *wal.Log { return d.log }

// SetUnsafeReclaimBeforePersist re-arms, on purpose, the two ordering bugs
// reclamation must never have: unlink deletes retired component files
// before the manifest that drops their names is saved, cut drops log
// segments before the manifest covering their records is. A crash (or a
// failed save) in between leaves a manifest naming missing files, or
// acknowledged writes in neither a component nor the log. It exists solely
// so the deterministic simulation corpus can prove it catches both
// (internal/dst); nothing else may call it.
func (d *Dataset) SetUnsafeReclaimBeforePersist(unlink, cut bool) {
	d.unsafeEarlyUnlink.Store(unlink)
	d.unsafeEarlyCut.Store(cut)
}

// ReclaimStats reports what the partition holds on the device and what
// reclamation still owes: the bytes of the retained log, the bytes of the
// component files the current component lists name, and the files of
// merged-away components not yet unlinked (a reader still pins them, or
// they await the next manifest).
func (d *Dataset) ReclaimStats() (walBytes, componentBytes int64, retiredFiles int) {
	if d.log != nil {
		walBytes = d.log.Bytes()
	}
	for _, nt := range d.trees {
		for _, c := range nt.tree.Components() {
			componentBytes += c.SizeBytes()
			if c.DeletedKeys != nil {
				componentBytes += c.DeletedKeys.SizeBytes()
			}
		}
		retiredFiles += nt.tree.RetiredFiles()
	}
	return walBytes, componentBytes, retiredFiles
}

// IngestedCount returns the number of records accepted so far.
func (d *Dataset) IngestedCount() int64 { return d.ingested.Load() }

// IgnoredCount returns the number of writes ignored (duplicate inserts,
// deletes of missing keys).
func (d *Dataset) IgnoredCount() int64 { return d.ignored.Load() }

// memBytes sums the memory components of every index, the figure compared
// against the shared budget.
func (d *Dataset) memBytes() int {
	total := d.primary.MemBytes()
	if d.pkIndex != nil {
		total += d.pkIndex.MemBytes()
	}
	for _, si := range d.secondaries {
		total += si.Tree.MemBytes()
		si.mu.Lock()
		total += len(si.memDeleted) * 16
		si.mu.Unlock()
	}
	return total
}

// freezeMemDeleted swaps out the accumulator and parks it on pendingDeleted,
// keeping its deletes visible to query validation until the owning flush
// batch installs its deleted-key B+-tree. It returns nil when the
// accumulator is empty.
func (si *SecondaryIndex) freezeMemDeleted() *frozenDeleted {
	si.mu.Lock()
	defer si.mu.Unlock()
	if len(si.memDeleted) == 0 {
		return nil
	}
	fd := &frozenDeleted{m: si.memDeleted}
	si.memDeleted = make(map[string]int64)
	si.pendingDeleted = append(si.pendingDeleted, fd)
	return fd
}

// releasePendingDeleted drops a parked accumulator once its deleted-key
// B+-tree is installed (or its batch abandoned by a crash).
func (si *SecondaryIndex) releasePendingDeleted(fd *frozenDeleted) {
	if fd == nil {
		return
	}
	si.mu.Lock()
	if i := slices.Index(si.pendingDeleted, fd); i >= 0 {
		si.pendingDeleted = slices.Delete(si.pendingDeleted, i, i+1)
	}
	si.mu.Unlock()
}

// sortedDeleted converts an accumulator map to entries sorted by primary key
// (the bulk-load order of a deleted-key B+-tree).
func sortedDeleted(m map[string]int64) []kv.Entry {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]kv.Entry, len(keys))
	for i, k := range keys {
		out[i] = kv.Entry{Key: []byte(k), TS: m[k]}
	}
	return out
}

// addMemDeleted records pk in the deleted-key accumulator.
func (si *SecondaryIndex) addMemDeleted(pk []byte, ts int64) {
	si.mu.Lock()
	si.memDeleted[string(pk)] = ts
	si.mu.Unlock()
}

// MemDeletedAfter reports whether the memory component's deleted-key set —
// or an accumulator frozen by an in-flight flush — holds pk
// with a deletion timestamp newer than ts (deleted-key strategy query
// validation, Section 4.1).
func (si *SecondaryIndex) MemDeletedAfter(pk []byte, ts int64) bool {
	si.mu.Lock()
	defer si.mu.Unlock()
	if si.memDeleted == nil {
		return false
	}
	if del, ok := si.memDeleted[string(pk)]; ok && del > ts {
		return true
	}
	for _, fd := range si.pendingDeleted {
		if del, ok := fd.m[string(pk)]; ok && del > ts {
			return true
		}
	}
	return false
}
