package lsm

import (
	"errors"
	"sync"

	"repro/internal/bitmap"
	"repro/internal/bloom"
	"repro/internal/btree"
	"repro/internal/kv"
	"repro/internal/memtable"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// Options configures one LSM-tree index.
type Options struct {
	// Name labels the tree in errors and stats.
	Name string
	// Store is the shared storage handle (disk + buffer cache).
	Store *storage.Store
	// BloomFPR, when positive, attaches a Bloom filter with this target
	// false-positive rate to every disk component (the paper uses 1%).
	BloomFPR float64
	// Bloom selects the filter variant. Only bloom.KindV2 filters marshal
	// into the durable manifest (RestoredComponent.Bloom), so reopen skips
	// the rebuild-by-scan the paper's in-memory-only variants pay.
	Bloom bloom.Kind
	// FilterExtract extracts the range-filter key from an entry, or reports
	// false when the entry carries none (anti-matter). Nil disables
	// recomputing filters at merge time.
	FilterExtract func(e kv.Entry) (int64, bool)
	// MutableBitmaps attaches a mutable validity bitmap to every disk
	// component (the Mutable-bitmap strategy, Section 5).
	MutableBitmaps bool
	// Seed makes memtable shapes deterministic.
	Seed int64
}

// newFilter builds the configured Bloom filter flavor sized for n keys,
// returning the filter and its insert function (nil, nil when filters are
// disabled). Every disk-component build path (memtable flush, merge, pk
// sibling build, restore rebuild) goes through this single selector.
func newFilter(opts Options, n int) (bloom.Filter, func([]byte)) {
	if opts.BloomFPR <= 0 {
		return nil, nil
	}
	switch opts.Bloom {
	case bloom.KindV2:
		f := bloom.NewV2FPR(n, opts.BloomFPR)
		return f, f.Add
	case bloom.KindBlocked:
		f := bloom.NewBlockedFPR(n, opts.BloomFPR)
		return f, f.Add
	default:
		f := bloom.NewStandardFPR(n, opts.BloomFPR)
		return f, f.Add
	}
}

// NewFilter builds a filter of the tree's configured flavor sized for n keys
// (see newFilter), for components the dataset layer assembles itself.
func (t *Tree) NewFilter(n int) (bloom.Filter, func([]byte)) { return newFilter(t.opts, n) }

// Tree is one LSM-tree index. All methods are safe for concurrent use.
type Tree struct {
	opts Options
	env  *metrics.Env

	mu   sync.RWMutex
	mem  *memtable.Table
	disk []*Component // oldest -> newest
	gen  int64
	// flushing holds the frozen memory components, oldest to newest, while
	// flushes build their disk components, keeping their entries visible to
	// concurrent readers during the build window (writers are drained during
	// freezes, readers are not). The dataset's flush pipeline may queue
	// several.
	flushing []*memtable.Table
	// installGen invalidates in-flight merge/flush installs across a crash:
	// ResetMem bumps it, and installs captured under an older generation are
	// abandoned with ErrStaleInstall.
	installGen uint64
}

// New creates an empty LSM-tree.
func New(opts Options) *Tree {
	t := &Tree{opts: opts, env: opts.Store.Env()}
	t.mem = memtable.New(opts.Seed)
	return t
}

// Name returns the tree's label.
func (t *Tree) Name() string { return t.opts.Name }

// Env returns the tree's metrics environment.
func (t *Tree) Env() *metrics.Env { return t.env }

// Options returns the tree's configuration.
func (t *Tree) Options() Options { return t.opts }

// Mem returns the current memory component.
func (t *Tree) Mem() *memtable.Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.mem
}

// Components returns a snapshot of the disk components, oldest to newest.
func (t *Tree) Components() []*Component {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*Component(nil), t.disk...)
}

// ReadView atomically snapshots the tree's read sources: the live memory
// component, the memory components currently being flushed (oldest to
// newest; empty outside a flush), and the disk components oldest to newest.
// Readers that consult mem and components non-atomically can miss the
// entries of an in-flight flush — swapped out of the memtable but not yet
// installed on disk — so every concurrent read path should start from one
// ReadView.
func (t *Tree) ReadView() (mem *memtable.Table, flushing []*memtable.Table, comps []*Component) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.mem, append([]*memtable.Table(nil), t.flushing...), append([]*Component(nil), t.disk...)
}

// NumFrozen returns the number of frozen memory components awaiting their
// disk-component builds (the backpressure signal).
func (t *Tree) NumFrozen() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.flushing)
}

// FrozenGet searches the frozen memory components newest-first for key,
// returning the winning entry and the table holding it. It backs write
// paths (Mutable-bitmap delete search) that must observe entries swapped
// out by an in-flight flush.
func (t *Tree) FrozenGet(key []byte) (kv.Entry, *memtable.Table, bool) {
	t.mu.RLock()
	frozen := t.flushing
	for i := len(frozen) - 1; i >= 0; i-- {
		if e, ok := frozen[i].Get(key); ok {
			t.mu.RUnlock()
			return e, frozen[i], true
		}
	}
	t.mu.RUnlock()
	return kv.Entry{}, nil, false
}

// NumDiskComponents returns the current number of disk components.
func (t *Tree) NumDiskComponents() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.disk)
}

// MemBytes returns the memory component's current footprint.
func (t *Tree) MemBytes() int { return t.Mem().Bytes() }

// DiskBytes returns the total size of all disk components.
func (t *Tree) DiskBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var total int64
	for _, c := range t.disk {
		total += c.SizeBytes()
	}
	return total
}

// Put inserts an entry (possibly anti-matter) into the memory component.
func (t *Tree) Put(e kv.Entry) {
	t.env.ChargeMemtable()
	t.Mem().Put(e)
}

// WidenMemFilter widens the memory component's range filter (strategy-
// dependent; see memtable.WidenFilter).
func (t *Tree) WidenMemFilter(v int64) { t.Mem().WidenFilter(v) }

// Get returns the newest visible version of key, reconciling the memory
// component and all disk components newest-first. Anti-matter and bitmap-
// deleted entries make the key read as absent.
func (t *Tree) Get(key []byte) (kv.Entry, bool, error) {
	e, _, _, found, err := t.getInternal(key, nil)
	return e, found, err
}

// GetWithLocation additionally reports the component holding the winning
// version (nil for the memory component) and the entry's ordinal in it.
// It is used by the Mutable-bitmap strategy's delete path and by component-
// ID propagation. The onlyComponents argument, when non-nil, restricts the
// search to the given disk components (pID pruning).
func (t *Tree) GetWithLocation(key []byte, onlyComponents []*Component) (kv.Entry, *Component, int64, bool, error) {
	e, c, ord, found, err := t.getInternal(key, onlyComponents)
	return e, c, ord, found, err
}

func (t *Tree) getInternal(key []byte, only []*Component) (kv.Entry, *Component, int64, bool, error) {
	t.env.Counters.PointLookups.Add(1)
	comps := only
	if comps == nil {
		mem, flushing, viewComps := t.ReadView()
		t.env.ChargeMemtable()
		if e, ok := mem.Get(key); ok {
			if e.Anti {
				return kv.Entry{}, nil, 0, false, nil
			}
			return e, nil, 0, true, nil
		}
		for i := len(flushing) - 1; i >= 0; i-- {
			t.env.ChargeMemtable()
			if e, ok := flushing[i].Get(key); ok {
				if e.Anti {
					return kv.Entry{}, nil, 0, false, nil
				}
				return e, nil, 0, true, nil
			}
		}
		comps = viewComps
	}
	for i := len(comps) - 1; i >= 0; i-- {
		c := comps[i]
		if !c.MayContain(t.env, key) {
			continue
		}
		e, ord, found, err := c.BTree.Get(key)
		if err != nil {
			return kv.Entry{}, nil, 0, false, err
		}
		if !found {
			continue
		}
		if !c.entryVisible(ord) {
			// Deleted through a bitmap: every older version is deleted
			// too (each was the newest when the write that superseded it
			// set its bit, see Component.Valid), so keep searching only
			// to honor Obsolete-bitmap skips, where older entries may win.
			if c.Valid.IsSet(ord) {
				return kv.Entry{}, nil, 0, false, nil
			}
			continue
		}
		if e.Anti {
			return kv.Entry{}, nil, 0, false, nil
		}
		return e, c, ord, true, nil
	}
	return kv.Entry{}, nil, 0, false, nil
}

// ResetMem discards the memory component and every frozen memory component
// (crash simulation: the no-steal policy guarantees disk components never
// hold uncommitted data, so losing memory state is exactly what a failure
// does). It also bumps the install generation so in-flight
// flush builds and merges abandon their installs instead of resurrecting
// pre-crash memory state.
func (t *Tree) ResetMem() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++
	t.installGen++
	t.mem = memtable.New(t.opts.Seed + t.gen)
	t.flushing = nil
}

// ErrEmptyFlush reports a flush of an empty memory component.
var ErrEmptyFlush = errors.New("lsm: empty memory component")

// ErrStaleInstall reports an install abandoned because the tree's memory
// state was reset (a simulated crash) after the merge or flush build began.
// The built component is discarded; its inputs — and, for flushes, nothing —
// remain in place, which is exactly the on-disk state a real crash leaves.
var ErrStaleInstall = errors.New("lsm: install abandoned by a concurrent reset")

// Flush freezes the memory component, bulk-loads it into a new disk
// component stamped with the given epoch, and installs it as the newest
// component. It returns ErrEmptyFlush when there is nothing to flush.
func (t *Tree) Flush(epoch uint64) (*Component, error) {
	frozen, gen, ok := t.Freeze()
	if !ok {
		return nil, ErrEmptyFlush
	}
	comp, err := t.BuildFrozen(nil, frozen, epoch)
	if err != nil {
		t.dropFrozen(frozen)
		return nil, err
	}
	if err := t.InstallFlushed(frozen, comp, gen); err != nil {
		return nil, err
	}
	return comp, nil
}

// Freeze swaps the live memory component for a fresh one and appends the old
// one to the frozen queue, where it stays readable until InstallFlushed. It
// reports ok=false (and freezes nothing) when the memory component is empty.
// The returned generation must be passed to InstallFlushed; it detects
// crashes between freeze and install.
func (t *Tree) Freeze() (frozen *memtable.Table, gen uint64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.mem
	if old.Len() == 0 {
		return nil, t.installGen, false
	}
	t.gen++
	t.mem = memtable.New(t.opts.Seed + t.gen)
	t.flushing = append(t.flushing, old)
	return old, t.installGen, true
}

// BuildFrozen bulk-loads a frozen memory component into a new disk component
// stamped with the given epoch. It does not install the component; pair it
// with InstallFlushed. The build I/O is charged to the given store view (the
// background maintenance lane; nil means the tree's own store), and the
// built component's reader is rebound to the tree's foreground store before
// it is returned, so queries against the installed component charge the
// foreground lane.
func (t *Tree) BuildFrozen(store *storage.Store, mem *memtable.Table, epoch uint64) (*Component, error) {
	if store == nil {
		store = t.opts.Store
	}
	n := mem.Len()
	b := btree.NewBuilder(store)
	filter, addToFilter := newFilter(t.opts, n)
	it := mem.NewIterator(nil, nil)
	var payload []byte
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		payload = kv.AppendPayload(payload[:0], e)
		if err := b.Add(e.Key, payload); err != nil {
			b.Abort()
			return nil, err
		}
		if addToFilter != nil {
			addToFilter(e.Key)
		}
	}
	reader, err := b.Finish()
	if err != nil {
		return nil, err
	}
	if store != t.opts.Store {
		reader.Rebind(t.opts.Store)
	}
	minTS, maxTS := mem.ID()
	comp := &Component{
		ID:       ID{MinTS: minTS, MaxTS: maxTS},
		EpochMin: epoch,
		EpochMax: epoch,
		BTree:    reader,
		Bloom:    filter,
		// A fresh component starts repaired up to its own maxTS (Fig 6):
		// obsolescence among entries of one memory-component lifetime is
		// already cleaned by the Section 4.2 local anti-matter
		// optimization, so only strictly newer components can invalidate
		// its entries.
		RepairedTS: maxTS,
	}
	if fmin, fmax, ok := mem.Filter(); ok {
		comp.FilterMin, comp.FilterMax, comp.HasFilter = fmin, fmax, true
	}
	if t.opts.MutableBitmaps {
		comp.Valid = bitmap.NewMutable(reader.NumEntries())
	}
	return comp, nil
}

// InstallFlushed atomically appends comp as the newest disk component and
// retires its frozen source memtable. With a stale generation (the tree was
// reset since Freeze) the install is abandoned with ErrStaleInstall: the
// frozen memtable is already gone and the built component is discarded.
func (t *Tree) InstallFlushed(frozen *memtable.Table, comp *Component, gen uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if gen != t.installGen {
		return ErrStaleInstall
	}
	t.disk = append(t.disk, comp)
	t.removeFrozenLocked(frozen)
	return nil
}

// dropFrozen removes a frozen memtable whose build failed, so the queue does
// not grow without bound; the tree is considered wedged by the caller.
func (t *Tree) dropFrozen(frozen *memtable.Table) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.removeFrozenLocked(frozen)
}

func (t *Tree) removeFrozenLocked(frozen *memtable.Table) {
	for i, m := range t.flushing {
		if m == frozen {
			t.flushing = append(t.flushing[:i:i], t.flushing[i+1:]...)
			return
		}
	}
}

// InstallGen returns the current install generation (captured by background
// maintenance jobs before building, checked again at install).
func (t *Tree) InstallGen() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.installGen
}

// ErrRunNotFound reports an identity-based replacement whose input run is no
// longer contiguous in the component list (another maintenance operation
// replaced one of the inputs first).
var ErrRunNotFound = errors.New("lsm: component run not found")

// ReplaceRun atomically replaces the contiguous run of components identified
// by inputs (by identity, not index) with newComp. Locating the run at
// install time tolerates components appended by concurrent flush installs;
// with a stale generation the replacement is abandoned with ErrStaleInstall.
// Retired components' files are intentionally left on the simulated disk:
// concurrent readers may still hold snapshots of the old component list (a
// production engine would reference-count components; the simulation simply
// never reuses file IDs, so stale reads stay safe and retired files are
// reclaimed when the whole store is garbage collected).
func (t *Tree) ReplaceRun(inputs []*Component, newComp *Component, gen uint64) error {
	if len(inputs) == 0 {
		return ErrBadMergeRange
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if gen != t.installGen {
		return ErrStaleInstall
	}
	lo := -1
	for i, c := range t.disk {
		if c == inputs[0] {
			lo = i
			break
		}
	}
	if lo < 0 || lo+len(inputs) > len(t.disk) {
		return ErrRunNotFound
	}
	for i, in := range inputs {
		if t.disk[lo+i] != in {
			return ErrRunNotFound
		}
	}
	var repl []*Component
	repl = append(repl, t.disk[:lo]...)
	if newComp != nil {
		repl = append(repl, newComp)
	}
	repl = append(repl, t.disk[lo+len(inputs):]...)
	t.disk = repl
	return nil
}

// SetObsolete installs the immutable repair bitmap and repair watermark on a
// component (standalone repair, Section 4.4).
func (t *Tree) SetObsolete(c *Component, bm *bitmap.Immutable, repairedTS int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c.Obsolete = bm
	c.RepairedTS = repairedTS
}
