package lsm

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitmap"
	"repro/internal/bloom"
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
	// Lane is the store view maintenance charges — the background I/O
	// lane: flush and merge builds write on it and merges scan their
	// inputs on it. Every finished component is read through Store. New
	// sets a nil Lane to Store, which then charges everything.
	Lane *storage.Store
	// BloomFPR, when positive, attaches a Bloom filter with this target
	// false-positive rate to every disk component (the paper uses 1%).
	BloomFPR float64
	// Bloom selects the filter variant. Only bloom.KindV2 filters are
	// written into their component's file (Builder.Finish), so reopen
	// reads them back and skips the rebuild-by-scan the paper's
	// in-memory-only variants pay.
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
	// OnRetire, when set, is called (on whatever goroutine dropped the last
	// pin) after a component's files were queued for deletion; see
	// TakeRetired. It must not block.
	OnRetire func()
}

// newFilter builds the configured Bloom filter flavor sized for n keys,
// returning the filter and its insert function (nil, nil when filters are
// disabled). Every filter goes through this single selector: Builder's for
// every component it writes — flushes, merges, the pk sibling and deleted-key
// trees (keySetFilter) — and the restore rebuild.
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

// Tree is one LSM-tree index. All methods are safe for concurrent use.
type Tree struct {
	opts Options
	env  *metrics.Env

	mu sync.RWMutex
	// cur is the tree's read sources. It is immutable: a freeze, an install
	// or a reset publishes a successor and drops the old one's reference.
	cur *readState
	gen int64
	// installGen invalidates in-flight merge/flush installs across a crash:
	// ResetMem bumps it, and installs captured under an older generation are
	// abandoned with ErrStaleInstall.
	installGen uint64

	retMu   sync.Mutex
	retired []storage.FileID // files of retired components, awaiting TakeRetired
	pinned  atomic.Int64     // files of components a merge replaced that a read state still lists
}

// readState is one immutable set of read sources (LevelDB's Version,
// Pebble's readState): the live memory component, the memory components
// frozen by in-flight flushes (oldest to newest; they stay readable while
// their disk components build — writers are drained during freezes, readers
// are not), and the disk components oldest to newest. The tree holds one
// reference on the current state and every ReadView adds one. A state holds
// one reference on each of its components; a component no state lists is
// retired and its files are queued for deletion.
type readState struct {
	refs     atomic.Int64
	mem      *memtable.Table
	flushing []*memtable.Table
	disk     []*Component
}

// View is a pinned read state. Release it when the read is over: until then
// every component it lists keeps its files, whatever merges install
// meanwhile.
type View struct {
	Mem        *memtable.Table
	Flushing   []*memtable.Table // oldest to newest; empty outside a flush
	Components []*Component      // oldest to newest
	t          *Tree
	rs         *readState
}

// Release drops the pin. The last pin on a replaced state only queues the
// files of the components it retires; it never touches the device.
func (v View) Release() { v.t.unref(v.rs) }

// New creates an empty LSM-tree.
func New(opts Options) *Tree {
	if opts.Lane == nil {
		opts.Lane = opts.Store
	}
	t := &Tree{opts: opts, env: opts.Store.Env()}
	t.cur = &readState{mem: memtable.New(opts.Seed)}
	t.cur.refs.Store(1)
	return t
}

// publish makes next the current read state, releases t.mu — which the
// caller holds — and drops the tree's reference on the state it replaced
// (outside the lock: the last reference queues files and calls OnRetire).
func (t *Tree) publish(next *readState) {
	for _, c := range next.disk {
		c.refs.Add(1)
	}
	next.refs.Store(1)
	old := t.cur
	t.cur = next
	t.mu.Unlock()
	t.unref(old)
}

// unref drops one reference on rs; the last one releases the state's
// components and queues the files of those no other state lists.
func (t *Tree) unref(rs *readState) {
	if rs.refs.Add(-1) != 0 {
		return
	}
	retired := false
	for _, c := range rs.disk {
		if c.refs.Add(-1) != 0 {
			continue
		}
		files := c.files()
		t.retMu.Lock()
		t.retired = append(t.retired, files...)
		t.retMu.Unlock()
		t.pinned.Add(-int64(len(files)))
		retired = true
	}
	if retired && t.opts.OnRetire != nil {
		t.opts.OnRetire()
	}
}

// TakeRetired appends the files of components that no read state lists any
// more to dst and empties the queue, keeping its capacity. The caller
// deletes them once the manifest that no longer names them is durable (or
// gives them back with Retire when it is not).
func (t *Tree) TakeRetired(dst []storage.FileID) []storage.FileID {
	t.retMu.Lock()
	defer t.retMu.Unlock()
	dst = append(dst, t.retired...)
	t.retired = t.retired[:0]
	return dst
}

// Retire queues files for a later TakeRetired.
func (t *Tree) Retire(ids []storage.FileID) {
	t.retMu.Lock()
	t.retired = append(t.retired, ids...)
	t.retMu.Unlock()
}

// RetiredFiles counts what reclamation still owes: files queued for
// deletion plus those of components a reader pins after a merge replaced
// them.
func (t *Tree) RetiredFiles() int {
	t.retMu.Lock()
	defer t.retMu.Unlock()
	return len(t.retired) + int(t.pinned.Load())
}

// Discard deletes the files of a component that was built but never
// installed (an abandoned flush batch or merge): no read state and no
// manifest ever listed it.
func (t *Tree) Discard(c *Component) {
	for _, id := range c.files() {
		t.opts.Store.Delete(id)
	}
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
	return t.cur.mem
}

// Components returns a snapshot of the disk components, oldest to newest.
// It pins nothing: maintenance uses it to pick and locate merge inputs;
// anything that reads the components' files goes through ReadView.
func (t *Tree) Components() []*Component { return t.AppendComponents(nil) }

// AppendComponents is Components appending to dst, for a caller that reuses
// one slice from snapshot to snapshot.
func (t *Tree) AppendComponents(dst []*Component) []*Component {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append(dst, t.cur.disk...)
}

// ReadView pins the tree's read sources: one atomic add under the read
// lock, nothing copied. Readers that consult mem and components
// non-atomically can miss the entries of an in-flight flush — swapped out
// of the memtable but not yet installed on disk — so every concurrent read
// path starts from one ReadView, and releases it when done.
func (t *Tree) ReadView() View {
	v, _ := t.pin()
	return v
}

// pin is ReadView plus the install generation the view was taken under.
func (t *Tree) pin() (View, uint64) {
	t.mu.RLock()
	rs, gen := t.cur, t.installGen
	rs.refs.Add(1)
	t.mu.RUnlock()
	return View{Mem: rs.mem, Flushing: rs.flushing, Components: rs.disk, t: t, rs: rs}, gen
}

// NumFrozen returns the number of frozen memory components awaiting their
// disk-component builds (the backpressure signal).
func (t *Tree) NumFrozen() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.cur.flushing)
}

// FrozenGet searches the frozen memory components newest-first for key,
// returning the winning entry and the table holding it. It backs write
// paths (Mutable-bitmap delete search) that must observe entries swapped
// out by an in-flight flush.
func (t *Tree) FrozenGet(key []byte) (kv.Entry, *memtable.Table, bool) {
	t.mu.RLock()
	frozen := t.cur.flushing
	t.mu.RUnlock()
	for i := len(frozen) - 1; i >= 0; i-- {
		if e, ok := frozen[i].Get(key); ok {
			return e, frozen[i], true
		}
	}
	return kv.Entry{}, nil, false
}

// NumDiskComponents returns the current number of disk components.
func (t *Tree) NumDiskComponents() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.cur.disk)
}

// MemBytes returns the memory component's current footprint.
func (t *Tree) MemBytes() int { return t.Mem().Bytes() }

// Put inserts an entry (possibly anti-matter) into the memory component.
func (t *Tree) Put(e kv.Entry) {
	t.env.ChargeMemtable()
	t.Mem().Put(e)
}

// WidenMemFilter widens the memory component's range filter (strategy-
// dependent; see memtable.WidenFilter).
func (t *Tree) WidenMemFilter(v int64) { t.Mem().WidenFilter(v) }

// Get reports whether key has a visible version: the newest entry View.Get
// finds is neither anti-matter nor deleted through its component's mutable
// bitmap (every older version is deleted too, see Component.Valid). When
// it is present and visit is non-nil, visit runs with it; a version read
// from a disk component is the pinned buffer-cache page's bytes, valid only
// until visit returns, so visit copies what it keeps. Batches of sorted
// keys go through View.Lookup instead.
func (t *Tree) Get(key []byte, visit func(kv.Entry)) (bool, error) {
	v := t.ReadView()
	defer v.Release()
	visible := false
	_, err := v.Get(key, func(e kv.Entry, c *Component, ord int64) {
		visible = !e.Anti && (c == nil || !c.Valid.IsSet(ord))
		if visible && visit != nil {
			visit(e)
		}
	})
	return visible, err
}

// ResetMem discards the memory component and every frozen memory component
// (crash simulation: the no-steal policy guarantees disk components never
// hold uncommitted data, so losing memory state is exactly what a failure
// does). It also bumps the install generation so in-flight
// flush builds and merges abandon their installs instead of resurrecting
// pre-crash memory state.
func (t *Tree) ResetMem() {
	t.mu.Lock()
	t.gen++
	t.installGen++
	t.publish(&readState{mem: memtable.New(t.opts.Seed + t.gen), disk: t.cur.disk})
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
	comp, err := t.BuildFrozen(frozen, epoch)
	if err != nil {
		t.dropFrozen(frozen)
		return nil, err
	}
	if err := t.InstallFlushed(frozen, comp, gen); err != nil {
		t.Discard(comp)
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
	cur, gen := t.cur, t.installGen
	if cur.mem.Len() == 0 {
		t.mu.Unlock()
		return nil, gen, false
	}
	t.gen++
	t.publish(&readState{
		mem:      memtable.New(t.opts.Seed + t.gen),
		flushing: append(cur.flushing[:len(cur.flushing):len(cur.flushing)], cur.mem),
		disk:     cur.disk,
	})
	return cur.mem, gen, true
}

// BuildFrozen bulk-loads a frozen memory component into a new disk component
// stamped with the given epoch. It does not install the component; pair it
// with InstallFlushed. The build charges the tree's lane (see Options.Lane).
func (t *Tree) BuildFrozen(mem *memtable.Table, epoch uint64) (*Component, error) {
	b := t.NewBuilder(mem.Len())
	it := mem.NewIterator(nil, nil)
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		if err := b.Add(e); err != nil {
			return nil, err
		}
	}
	reader, filter, err := b.Finish()
	if err != nil {
		return nil, err
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
// frozen memtable is already gone; the caller discards the built component.
func (t *Tree) InstallFlushed(frozen *memtable.Table, comp *Component, gen uint64) error {
	t.mu.Lock()
	if gen != t.installGen {
		t.mu.Unlock()
		return ErrStaleInstall
	}
	cur := t.cur
	t.publish(&readState{
		mem:      cur.mem,
		flushing: withoutFrozen(cur.flushing, frozen),
		disk:     append(cur.disk[:len(cur.disk):len(cur.disk)], comp),
	})
	return nil
}

// dropFrozen removes a frozen memtable whose build failed, so the queue does
// not grow without bound; the tree is considered wedged by the caller.
func (t *Tree) dropFrozen(frozen *memtable.Table) {
	t.mu.Lock()
	cur := t.cur
	t.publish(&readState{mem: cur.mem, flushing: withoutFrozen(cur.flushing, frozen), disk: cur.disk})
}

// withoutFrozen returns a copy of the frozen queue without the given table.
func withoutFrozen(flushing []*memtable.Table, frozen *memtable.Table) []*memtable.Table {
	out := make([]*memtable.Table, 0, len(flushing))
	for _, m := range flushing {
		if m != frozen {
			out = append(out, m)
		}
	}
	return out
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
// An abandoned newComp is discarded here. The replaced components retire —
// their files are queued for deletion — when the last read state listing
// them is released.
func (t *Tree) ReplaceRun(inputs []*Component, newComp *Component, gen uint64) error {
	if len(inputs) == 0 {
		return ErrBadMergeRange
	}
	t.mu.Lock()
	cur := t.cur
	lo := slices.Index(cur.disk, inputs[0])
	var err error
	switch {
	case gen != t.installGen:
		err = ErrStaleInstall
	case lo < 0 || lo+len(inputs) > len(cur.disk) || !slices.Equal(cur.disk[lo:lo+len(inputs)], inputs):
		err = ErrRunNotFound
	}
	if err != nil {
		t.mu.Unlock()
		if newComp != nil {
			t.Discard(newComp)
		}
		return err
	}
	var repl []*Component
	repl = append(repl, cur.disk[:lo]...)
	if newComp != nil {
		repl = append(repl, newComp)
	}
	repl = append(repl, cur.disk[lo+len(inputs):]...)
	for _, c := range inputs {
		t.pinned.Add(int64(len(c.files())))
	}
	t.publish(&readState{mem: cur.mem, flushing: cur.flushing, disk: repl})
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
