package core

import (
	"errors"
	"slices"
	"sync"
	"time"

	"repro/internal/lsm"
	"repro/internal/maint"
	"repro/internal/memtable"
	"repro/internal/obs"
)

// This file implements the dataset's one flush pipeline: freeze → build →
// install. The write that crosses the memory budget freezes the memory
// components (a writer drain plus pointer swaps) and submits the batch to
// Config.Maintenance; the disk-component builds and every policy-picked
// merge run as pool jobs — on the pool's workers, or on the submitting
// writer itself when the pool has none. The frozen memtables stay readable
// through the trees' flushing queues (lsm.Tree.ReadView), writers soft-stall
// when maintenance falls too far behind (backpressure), and a failed job
// wedges the dataset with a sticky error that every later write returns.
// Crash abandons in-flight installs through the trees' install generations,
// so a failure can never resurrect pre-crash memory state.
//
// The pipeline is also where the write-ahead log is cut. The freeze rotates
// the log to a fresh segment inside its writer drain, so every record logged
// before the freeze sits in an older segment and every write those records
// describe sits in the batch's frozen memtables (or in components already).
// Once the batch is installed and the manifest naming its components is
// durable, those older segments are dropped wholesale.

// flushBatch is one frozen set of memory components: every index of the
// dataset freezes together under one epoch (the dataset's indexes always
// flush together, Section 3's shared memory budget).
type flushBatch struct {
	epoch uint64
	// walCut is the log segment the freeze rotated to: every older segment
	// is covered once this batch is durable. 0 when there is no log or the
	// rotation failed (nothing is cut then).
	walCut uint64

	primary, pk *memtable.Table // nil when that index's memtable was empty
	primGen     uint64          // install generation captured at freeze
	pkGen       uint64
	secondaries []*memtable.Table // per secondary index; nil entries allowed
	secGens     []uint64
	secDeleted  []*frozenDeleted // DeletedKey accumulators frozen with the batch

	// Mutable-bitmap bookkeeping: deletes of keys whose newest version
	// lives in this batch's frozen memtables are forwarded here; the build
	// applies them to the new component's validity bitmap before install
	// (the same idea as the Section 5.3 build-target forwarding, one stage
	// earlier in the pipeline).
	delMu         sync.Mutex
	frozenDeletes map[string]struct{}
	sealed        bool
	sealedPrim    *lsm.Component // set at seal time; nil when abandoned by a crash
}

// addFrozenDelete forwards a delete of pk into the batch. Before sealing it
// lands in the forwarded set, which the build applies to the component's
// bitmap (forwarded=true). After sealing the caller must apply the delete
// to the returned sealed component itself — through the normal
// disk-component path, so a merge concurrently building over it still sees
// the delete forwarded. Both results zero means the batch was abandoned by
// a crash and the caller re-runs its search against the post-crash state.
func (b *flushBatch) addFrozenDelete(pk []byte) (forwarded bool, sealedComp *lsm.Component) {
	b.delMu.Lock()
	defer b.delMu.Unlock()
	if !b.sealed {
		if b.frozenDeletes == nil {
			b.frozenDeletes = make(map[string]struct{})
		}
		b.frozenDeletes[string(pk)] = struct{}{}
		return true, nil
	}
	return false, b.sealedPrim // nil when abandoned: the memtables died with the crash
}

// seal closes the forwarded-delete window: later forwards apply directly to
// comp's bitmap. It returns the deletes forwarded so far.
func (b *flushBatch) seal(comp *lsm.Component) map[string]struct{} {
	b.delMu.Lock()
	defer b.delMu.Unlock()
	b.sealed = true
	b.sealedPrim = comp
	dels := b.frozenDeletes
	b.frozenDeletes = nil
	return dels
}

// removeFrozenDelete retracts a forwarded delete whose WAL append failed.
// Before sealing it simply leaves the forwarded set; after sealing the set
// was already applied to the built component, which is returned so the
// caller can clear the bit there (nil when the batch was abandoned by a
// crash — nothing was applied).
func (b *flushBatch) removeFrozenDelete(pk []byte) *lsm.Component {
	b.delMu.Lock()
	defer b.delMu.Unlock()
	if !b.sealed {
		delete(b.frozenDeletes, string(pk))
		return nil
	}
	return b.sealedPrim
}

// maintState is the per-dataset scheduling state over the shared pool.
type maintState struct {
	pool *maint.Pool

	mu        sync.Mutex
	cond      *sync.Cond
	pending   []*flushBatch
	byPKTable map[*memtable.Table]*flushBatch
	frozen    int // pending + building batches not yet installed
	building  bool
	mergeWant bool // a merge job is queued
	merging   bool
	reclaims  int   // reclaim jobs queued or running
	err       error // sticky first failure of any job

	freezeMu sync.Mutex // serializes freeze decisions
}

func newMaintState(pool *maint.Pool) *maintState {
	m := &maintState{pool: pool, byPKTable: make(map[*memtable.Table]*flushBatch)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// dequeueLocked removes pending[i]; the builder's pop and a refused
// submit's unwind both go through it. slices.Delete clears the slot it
// vacates at the tail, so the backing array never keeps a dequeued batch —
// and with it a memory budget's worth of frozen memtables — reachable after
// its install, and the queue keeps its capacity. m.mu must be held.
func (m *maintState) dequeueLocked(i int) {
	m.pending = slices.Delete(m.pending, i, i+1)
}

// ErrMaintenanceClosed reports a write against a store whose maintenance
// pool was closed (the store was Closed).
var ErrMaintenanceClosed = errors.New("core: maintenance pool is closed")

// setErrLocked records the first job failure; m.mu must be held.
func (m *maintState) setErrLocked(err error) {
	if m.err == nil && err != nil {
		m.err = err
	}
	m.cond.Broadcast()
}

// MaintErr returns the sticky maintenance error, if any. A flush batch
// installs all of its components or none, so a failed build or merge leaves
// nothing half-installed; every write from then on returns this error (the
// store is considered wedged) until a Crash+Recover cycle.
func (d *Dataset) MaintErr() error {
	m := d.maint
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// maybeFlush runs after every write: apply backpressure, then freeze and
// schedule a flush when the shared budget is exceeded. The sticky-error
// check is folded into the backpressure pass so the common write takes the
// maintenance mutex once.
func (d *Dataset) maybeFlush() error {
	if err := d.stallForBackpressure(); err != nil {
		return err
	}
	if d.memBytes() < d.cfg.MemoryBudget {
		return nil
	}
	d.freezeAndSchedule(true)
	return d.MaintErr()
}

// stallForBackpressure blocks the writer while maintenance is too far
// behind: too many frozen batches awaiting builds. Stall counts and
// wall-clock durations land in the metrics counters. It returns the sticky
// maintenance error, which also breaks any stall.
func (d *Dataset) stallForBackpressure() error {
	m := d.maint
	maxFrozen := d.cfg.MaxFrozenMemtables
	if maxFrozen <= 0 {
		maxFrozen = 4
	}
	var start time.Time
	stalled := false
	m.mu.Lock()
	for m.err == nil && m.frozen >= maxFrozen {
		if !stalled {
			stalled = true
			start = time.Now()
		}
		m.cond.Wait()
	}
	err := m.err
	m.mu.Unlock()
	if stalled {
		d.env.Counters.WriteStalls.Add(1)
		d.env.Counters.WriteStallNanos.Add(time.Since(start).Nanoseconds())
		d.syncLanes()
	}
	return err
}

// syncLanes couples the two virtual clocks where the ingest path waited for
// maintenance (a backpressure stall, a drain): the ingest lane catches up to
// the maintenance lane. With one lane there is nothing to couple.
func (d *Dataset) syncLanes() {
	if d.bgEnv != nil {
		d.env.Clock.AdvanceTo(d.bgEnv.Clock.Now())
	}
}

// freezeAndSchedule freezes the memory components into a batch and submits
// its build to the pool. With checkBudget set it re-verifies the memory
// budget under the freeze lock, so racing writers freeze at most once per
// crossing. The batch is enqueued while freezeMu is still held: freeze
// (epoch) order and queue order must agree, or the FIFO builder could
// install a newer epoch's components below an older one and break the
// component list's recency order.
func (d *Dataset) freezeAndSchedule(checkBudget bool) {
	m := d.maint
	m.freezeMu.Lock()
	if checkBudget && d.memBytes() < d.cfg.MemoryBudget {
		m.freezeMu.Unlock()
		return
	}
	b := d.freezeBatch()
	m.freezeMu.Unlock()
	if b == nil {
		return
	}
	if !m.pool.Submit(d.processOneBatch) {
		m.mu.Lock()
		if i := slices.Index(m.pending, b); i >= 0 {
			m.dequeueLocked(i)
			m.frozen--
		}
		delete(m.byPKTable, b.pk)
		m.setErrLocked(ErrMaintenanceClosed)
		m.mu.Unlock()
	}
}

// freezeBatch freezes every index's memory component under a writer drain,
// stamps the batch with a fresh epoch, and enqueues it — still inside the
// drain, so no resumed writer can ever observe a frozen memtable whose
// batch is not yet registered (the Mutable-bitmap delete forward relies on
// finding the owning batch through byPKTable). It returns nil when every
// memtable is empty (no epoch is consumed, nothing is enqueued).
func (d *Dataset) freezeBatch() *flushBatch {
	b := &flushBatch{}
	any := false
	d.dsLock.Drain(func() {
		var ok bool
		if b.primary, b.primGen, ok = d.primary.Freeze(); ok {
			any = true
		} else {
			b.primary = nil
		}
		if d.pkIndex != nil {
			if b.pk, b.pkGen, ok = d.pkIndex.Freeze(); ok {
				any = true
			} else {
				b.pk = nil
			}
		}
		b.secondaries = make([]*memtable.Table, len(d.secondaries))
		b.secGens = make([]uint64, len(d.secondaries))
		b.secDeleted = make([]*frozenDeleted, len(d.secondaries))
		for i, si := range d.secondaries {
			if tbl, gen, ok := si.Tree.Freeze(); ok {
				b.secondaries[i], b.secGens[i] = tbl, gen
				any = true
				if d.cfg.Strategy == DeletedKey {
					// The accumulator freezes with its memtable; an
					// empty-memtable secondary keeps accumulating for its
					// next flush.
					b.secDeleted[i] = si.freezeMemDeleted()
				}
			}
		}
		if any {
			b.epoch = d.epoch.Add(1)
			if d.log != nil {
				// No append is in flight inside the drain. A failed rotation
				// wedges the log itself (the next write surfaces it); the
				// batch still builds, it just cuts nothing.
				//lsm:allow-discard the error is sticky in the log (DeviceErr) and fails the next write
				b.walCut, _ = d.log.Rotate()
			}
			m := d.maint
			m.mu.Lock()
			m.pending = append(m.pending, b)
			m.frozen++
			if b.pk != nil {
				m.byPKTable[b.pk] = b
			}
			m.mu.Unlock()
		}
	})
	if !any {
		return nil
	}
	return b
}

// processOneBatch is the pool job that builds and installs pending flush
// batches, strictly in freeze (epoch) order: the `building` flag admits one
// builder per dataset and the pending queue pops FIFO. A job that finds a
// builder already active returns immediately — the active builder drains
// the queue before exiting — so a busy dataset never pins extra pool
// workers that other shards could use, and a writer running its own job
// never waits behind another writer's build.
func (d *Dataset) processOneBatch() {
	m := d.maint
	m.mu.Lock()
	if m.building {
		m.mu.Unlock()
		return
	}
	for len(m.pending) > 0 {
		b := m.pending[0]
		m.dequeueLocked(0)
		m.building = true
		m.mu.Unlock()

		op := d.cfg.Journal.Begin(obs.JFlush, "batch")
		bytes, comps, err := d.buildAndInstallBatch(b)
		if err == nil {
			if d.unsafeEarlyCut.Load() {
				d.cutLog(b.walCut)
			}
			// Durability point: sync the built component files and publish
			// them in the manifest before the batch counts as complete.
			err = d.Persist()
		}
		if err == nil {
			d.cutLog(b.walCut)
		}
		op.End(bytes, 0, comps, err)

		// Queue the follow-up merge BEFORE announcing completion: a
		// drainer woken by the broadcast below must observe the pending
		// merge, or it could return with merges still due.
		if err == nil {
			d.scheduleMerge()
		}

		m.mu.Lock()
		m.building = false
		m.frozen--
		delete(m.byPKTable, b.pk)
		if err != nil && !errors.Is(err, lsm.ErrStaleInstall) {
			m.setErrLocked(err)
		}
		m.cond.Broadcast()
	}
	m.mu.Unlock()
}

// cutLog drops every log segment older than seq, the segment a flush batch's
// freeze rotated to, now that the batch is installed and persisted. Batches
// install in freeze order, so every earlier batch is durable too — unless
// one failed: then the shard is wedged, the failed batch's writes live only
// in the log, and nothing is cut until a Crash + Recover has replayed them
// into a memtable that a later batch freezes.
func (d *Dataset) cutLog(seq uint64) {
	if seq != 0 && d.MaintErr() == nil {
		d.log.DropBefore(seq)
	}
}

// scheduleReclaim queues the job that unlinks retired component files. It
// is the trees' OnRetire hook: a reader that outlived the Persist dropping
// its components' names calls it from its last Release, which must not
// touch the device itself. A pool without workers would run the job right
// here, on that reader; there the next flush's Persist reclaims instead.
func (d *Dataset) scheduleReclaim() {
	m := d.maint
	if m == nil || m.pool.Workers() == 0 {
		return
	}
	m.mu.Lock()
	m.reclaims++
	m.mu.Unlock()
	done := func() {
		m.mu.Lock()
		m.reclaims--
		m.cond.Broadcast()
		m.mu.Unlock()
	}
	if !m.pool.Submit(func() { d.reclaim(); done() }) {
		done() // the pool is closed: Close's Persist reclaims
	}
}

// batchForPKTable maps a frozen pk-index memtable to its flush batch (for
// forwarding Mutable-bitmap deletes).
func (d *Dataset) batchForPKTable(tbl *memtable.Table) *flushBatch {
	m := d.maint
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byPKTable[tbl]
}

// buildAndInstallBatch bulk-loads every frozen memtable of the batch into
// disk components, then installs them all atomically with respect to Crash.
// It reports the components built and their byte size for the maintenance
// journal (best-effort: a failed batch reports what it built before the
// failure). A batch that fails or is abandoned by a crash deletes the files
// it created: no read state and no manifest ever listed them.
func (d *Dataset) buildAndInstallBatch(b *flushBatch) (bytes int64, comps int, err error) {
	type builtComp struct {
		tr *lsm.Tree
		c  *lsm.Component
	}
	var built []builtComp // in install order
	installed := 0
	defer func() {
		if err != nil {
			for _, bc := range built[installed:] {
				bc.tr.Discard(bc.c)
			}
		}
	}()
	var primComp, pkComp *lsm.Component
	if b.primary != nil {
		if primComp, err = d.primary.BuildFrozen(b.primary, b.epoch); err != nil {
			return bytes, comps, err
		}
		built = append(built, builtComp{d.primary, primComp})
		bytes += primComp.SizeBytes()
		comps++
	}
	if b.pk != nil {
		if pkComp, err = d.pkIndex.BuildFrozen(b.pk, b.epoch); err != nil {
			return bytes, comps, err
		}
		built = append(built, builtComp{d.pkIndex, pkComp})
		bytes += pkComp.SizeBytes()
		comps++
	}
	if d.cfg.Strategy == MutableBitmap {
		if err = pairPrimaryPK(primComp, pkComp); err != nil {
			return bytes, comps, err
		}
	}
	secComps := make([]*lsm.Component, len(d.secondaries))
	for i, si := range d.secondaries {
		if b.secondaries[i] == nil {
			continue
		}
		var comp *lsm.Component
		if comp, err = si.Tree.BuildFrozen(b.secondaries[i], b.epoch); err != nil {
			return bytes, comps, err
		}
		built = append(built, builtComp{si.Tree, comp})
		bytes += comp.SizeBytes()
		comps++
		if d.cfg.Strategy == DeletedKey && b.secDeleted[i] != nil {
			if err = d.attachDeletedEntries(comp, sortedDeleted(b.secDeleted[i].m)); err != nil {
				return bytes, comps, err
			}
		}
		secComps[i] = comp
	}

	// Install atomically with respect to Crash: either the whole batch
	// lands before the failure (and is durable) or none of it does. The
	// trees' per-install generation checks agree because Crash bumps them
	// all while holding crashMu.
	d.crashMu.Lock()
	defer d.crashMu.Unlock()
	if b.primary != nil && d.primary.InstallGen() != b.primGen {
		// A crash abandoned the batch; the frozen memtables are already
		// gone. Seal with no component so racing delete-forwarders fall
		// back to re-running their search.
		b.seal(nil)
		return bytes, comps, lsm.ErrStaleInstall
	}
	if primComp != nil && primComp.Valid != nil {
		// Seal the forwarded-delete window and apply the deletes gathered
		// while the memtable was frozen (Mutable-bitmap strategy). The
		// component is not installed yet, so no merge can be building over
		// it; a lookup failure must fail the batch — silently dropping a
		// forwarded delete would resurrect the record.
		for pk := range b.seal(primComp) {
			ord, found, err := primComp.BTree.Get([]byte(pk), nil)
			if err != nil {
				return bytes, comps, err
			}
			if found {
				primComp.Valid.Set(ord)
			}
		}
	}
	if b.primary != nil {
		if err = d.primary.InstallFlushed(b.primary, primComp, b.primGen); err != nil {
			return bytes, comps, err
		}
		installed++
	}
	if b.pk != nil {
		if err = d.pkIndex.InstallFlushed(b.pk, pkComp, b.pkGen); err != nil {
			return bytes, comps, err
		}
		installed++
	}
	for i, si := range d.secondaries {
		if b.secondaries[i] != nil {
			if err = si.Tree.InstallFlushed(b.secondaries[i], secComps[i], b.secGens[i]); err != nil {
				return bytes, comps, err
			}
			installed++
		}
		si.releasePendingDeleted(b.secDeleted[i])
	}
	return bytes, comps, nil
}

// scheduleMerge queues one merge job unless one is already queued. The job
// runs every due merge; flush batches finishing during the run queue a
// fresh job, so newly due merges are never missed.
func (d *Dataset) scheduleMerge() {
	if d.cfg.Policy == nil {
		return
	}
	m := d.maint
	m.mu.Lock()
	if m.mergeWant || m.err != nil {
		m.mu.Unlock()
		return
	}
	m.mergeWant = true
	m.mu.Unlock()
	if !m.pool.Submit(d.runMergeJob) {
		m.mu.Lock()
		m.mergeWant = false
		m.setErrLocked(ErrMaintenanceClosed)
		m.mu.Unlock()
	}
}

// runMergeJob is the pool job that runs every due merge for the dataset.
// The `merging` flag admits one merger per dataset: a job arriving while
// one is active returns at once, leaving mergeWant set for the active
// merger's loop to consume, so no pool worker ever blocks behind another
// shard's merge pass.
func (d *Dataset) runMergeJob() {
	m := d.maint
	m.mu.Lock()
	if m.merging {
		m.mu.Unlock()
		return
	}
	for m.mergeWant {
		m.mergeWant = false
		m.merging = true
		m.mu.Unlock()

		merged, err := d.mergeDue()
		if errors.Is(err, lsm.ErrStaleInstall) {
			err = nil // a crash abandoned the merge; its inputs are intact
		}
		// A pass that merged nothing leaves the manifest the flush saved
		// current; files a late reader retired since wait for the next
		// flush's Persist or the reclaim job.
		if err == nil && merged {
			err = d.Persist()
		}

		m.mu.Lock()
		m.merging = false
		if err != nil {
			m.setErrLocked(err)
		}
		m.cond.Broadcast()
	}
	m.mu.Unlock()
}

// FlushAll freezes whatever the memtables hold into a batch stamped with a
// fresh epoch and drains until every maintenance job of this dataset has
// finished: the batch's build and the merge pass its install queues. The
// store is fully quiesced — and, on a durable device, its manifest
// references every installed component — when it returns.
func (d *Dataset) FlushAll() error {
	if err := d.MaintErr(); err != nil {
		return err
	}
	d.freezeAndSchedule(false)
	return d.DrainMaintenance()
}

// DrainMaintenance blocks until no flush batches are pending or building
// and no merge or reclaim job is queued or running, then returns the sticky
// maintenance error, if any.
func (d *Dataset) DrainMaintenance() error {
	m := d.maint
	m.mu.Lock()
	for m.err == nil && (len(m.pending) > 0 || m.building || m.mergeWant || m.merging || m.reclaims > 0) {
		m.cond.Wait()
	}
	err := m.err
	m.mu.Unlock()
	d.syncLanes()
	return err
}

// abandonPending drops queued flush batches (their frozen memtables die with
// the crash) and wakes stalled writers. In-flight builds and merges abandon
// themselves at install time through the trees' generation checks. The
// caller holds crashMu.
func (d *Dataset) abandonPending() {
	m := d.maint
	m.mu.Lock()
	m.frozen -= len(m.pending)
	m.pending = nil
	m.byPKTable = make(map[*memtable.Table]*flushBatch)
	m.err = nil // the crash wipes the wedged state; Recover rebuilds from the log
	m.cond.Broadcast()
	m.mu.Unlock()
}
