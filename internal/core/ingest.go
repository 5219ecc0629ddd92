package core

import (
	"bytes"
	"runtime"

	"repro/internal/kv"
	"repro/internal/lsm"
	"repro/internal/memtable"
	"repro/internal/txn"
	"repro/internal/wal"
)

// withWriteLocks runs one record-level write transaction: the writer is
// registered with the dataset lock (so Side-file drains can wait for it)
// and holds an exclusive lock on the primary key (Section 5.2). The flush
// check runs after both locks are released — flushing drains writers, so it
// must never run while this writer is still registered.
//
// The ingestion timestamp is drawn INSIDE the registered window and handed
// to fn. This ordering is load-bearing for recovery: flushes freeze
// memtables under a writer drain, so every timestamp issued before a
// freeze has its entry in the frozen memtable, and a flushed component's
// MaxTS can never cover a timestamp whose write is still in flight. WAL
// replay (and on-disk WAL compaction) drop records with TS <= the maximum
// durable component timestamp — drawing the timestamp before registering
// would let a stalled writer log an acknowledged write that replay then
// skips forever.
func (d *Dataset) withWriteLocks(pk []byte, fn func(ts int64) error) error {
	d.dsLock.Enter()
	defer d.dsLock.Exit()
	d.locks.Lock(pk, txn.Exclusive)
	defer d.locks.Unlock(pk, txn.Exclusive)
	// A sticky WAL-durability failure makes the dataset read-only: fail
	// here, before any strategy mutates shared state (the Mutable-bitmap
	// paths flip disk bitmaps before logging).
	if d.log != nil {
		if err := d.log.SinkErr(); err != nil {
			return err
		}
	}
	return fn(d.NextTS())
}

// Insert adds a new record under pk. It returns false when the key already
// exists (the record is ignored, Section 3.1). All strategies handle
// inserts identically up to timestamping: key uniqueness is checked with a
// point lookup against the primary key index when available, else the
// primary index.
func (d *Dataset) Insert(pk, record []byte) (bool, error) {
	return d.InsertBatched(pk, record, nil)
}

// InsertBatched is Insert with deferred commit durability: with a non-nil
// batch the commit record is appended unsynced and registered in b, and
// the write may only be acknowledged after WaitCommitBatch(b) succeeds.
// A nil batch keeps Insert's own durability (the commit is durable on
// return).
func (d *Dataset) InsertBatched(pk, record []byte, b *wal.Batch) (bool, error) {
	inserted := false
	err := d.withWriteLocks(pk, func(ts int64) error {
		exists, err := d.keyExists(pk)
		if err != nil {
			return err
		}
		if exists {
			d.ignored.Add(1)
			return nil
		}
		if err := d.logOp(wal.RecInsert, pk, record, ts, false, b); err != nil {
			return err
		}
		d.putAllIndexes(pk, record, ts)
		d.widenFilterFor(record)
		d.ingested.Add(1)
		inserted = true
		return nil
	})
	if err != nil {
		return false, err
	}
	if !inserted {
		return false, nil
	}
	return true, d.maybeFlush()
}

// Delete removes the record under pk, if any. It returns false when the key
// does not exist.
func (d *Dataset) Delete(pk []byte) (bool, error) {
	return d.DeleteBatched(pk, nil)
}

// DeleteBatched is Delete with deferred commit durability (see
// InsertBatched).
func (d *Dataset) DeleteBatched(pk []byte, b *wal.Batch) (bool, error) {
	deleted := false
	err := d.withWriteLocks(pk, func(ts int64) error {
		ok, err := d.deleteLocked(pk, ts, b)
		deleted = ok
		return err
	})
	if err != nil {
		return false, err
	}
	if !deleted {
		return false, nil
	}
	return true, d.maybeFlush()
}

func (d *Dataset) deleteLocked(pk []byte, ts int64, b *wal.Batch) (bool, error) {
	switch d.cfg.Strategy {
	case Eager:
		// Point lookup fetches the old record so anti-matter can be
		// produced for every index and filters widened (Section 3.1).
		old, found, err := d.primary.Get(pk)
		if err != nil {
			return false, err
		}
		if !found {
			d.ignored.Add(1)
			return false, nil
		}
		if err := d.logOp(wal.RecDelete, pk, nil, ts, false, b); err != nil {
			return false, err
		}
		d.putAnti(pk, ts)
		for _, si := range d.secondaries {
			if sk, ok := si.Spec.Extract(old.Value); ok {
				si.Tree.Put(kv.Entry{Key: kv.ComposeKey(sk, pk), TS: ts, Anti: true})
			}
		}
		d.widenFilterFor(old.Value)

	case Validation:
		// Anti-matter goes to the primary and primary key indexes only
		// (Section 4.2); obsolete secondary entries are repaired later.
		if err := d.logOp(wal.RecDelete, pk, nil, ts, false, b); err != nil {
			return false, err
		}
		d.cleanSecondariesFromMem(pk, ts)
		d.putAnti(pk, ts)

	case MutableBitmap:
		updateBit, existed, undo, commit, err := d.markDeletedViaBitmap(pk)
		if err != nil {
			return false, err
		}
		if !existed {
			d.ignored.Add(1)
			return false, nil
		}
		// An anti-matter key is still added (Section 5.2): the bitmap is
		// an auxiliary structure and must not change LSM semantics, and
		// it keeps Validation-maintained secondaries repairable.
		if err := d.logOp(wal.RecDelete, pk, nil, ts, updateBit, b); err != nil {
			// The append failed, so the delete never durably happened:
			// revert the bitmap flip before reporting failure.
			if undo != nil {
				undo()
			}
			return false, err
		}
		if commit != nil {
			commit() // durably logged: now forward to any in-flight build
		}
		d.cleanSecondariesFromMem(pk, ts)
		d.putAnti(pk, ts)

	case DeletedKey:
		if err := d.logOp(wal.RecDelete, pk, nil, ts, false, b); err != nil {
			return false, err
		}
		d.putAnti(pk, ts)
		for _, si := range d.secondaries {
			si.addMemDeleted(pk, ts)
		}
	}
	d.ingested.Add(1)
	return true, nil
}

// Upsert inserts record under pk, replacing any existing record. This is
// the operation where the strategies differ most (Sections 3.1, 4.2, 5.2).
func (d *Dataset) Upsert(pk, record []byte) error {
	return d.UpsertBatched(pk, record, nil)
}

// UpsertBatched is Upsert with deferred commit durability (see
// InsertBatched).
func (d *Dataset) UpsertBatched(pk, record []byte, b *wal.Batch) error {
	if err := d.withWriteLocks(pk, func(ts int64) error {
		return d.upsertLocked(pk, record, ts, b)
	}); err != nil {
		return err
	}
	return d.maybeFlush()
}

func (d *Dataset) upsertLocked(pk, record []byte, ts int64, b *wal.Batch) error {
	switch d.cfg.Strategy {
	case Eager:
		// Point lookup to fetch the old record; anti-matter entries clean
		// each secondary index whose key changed; filters are maintained
		// with both the old and the new record (Figure 3).
		old, found, err := d.primary.Get(pk)
		if err != nil {
			return err
		}
		if err := d.logOp(wal.RecUpsert, pk, record, ts, false, b); err != nil {
			return err
		}
		for _, si := range d.secondaries {
			newSK, hasNew := si.Spec.Extract(record)
			if found {
				oldSK, hasOld := si.Spec.Extract(old.Value)
				if hasOld && hasNew && bytes.Equal(oldSK, newSK) {
					// Unchanged secondary key: skip maintenance entirely.
					continue
				}
				if hasOld {
					si.Tree.Put(kv.Entry{Key: kv.ComposeKey(oldSK, pk), TS: ts, Anti: true})
				}
			}
			if hasNew {
				si.Tree.Put(kv.Entry{Key: kv.ComposeKey(newSK, pk), TS: ts})
			}
		}
		d.primary.Put(kv.Entry{Key: pk, Value: record, TS: ts})
		if d.pkIndex != nil {
			d.pkIndex.Put(kv.Entry{Key: pk, TS: ts})
		}
		if found {
			d.widenFilterFor(old.Value)
		}
		d.widenFilterFor(record)

	case Validation:
		// Blind insert into every index (Figure 4); filters maintained
		// with the new record only.
		if err := d.logOp(wal.RecUpsert, pk, record, ts, false, b); err != nil {
			return err
		}
		d.cleanSecondariesFromMem(pk, ts)
		d.putAllIndexes(pk, record, ts)
		d.widenFilterFor(record)

	case MutableBitmap:
		// The primary key index locates the old record; if it lives in a
		// disk component its bitmap bit is set (Figure 9). Filters are
		// maintained with the new record only.
		updateBit, _, undo, commit, err := d.markDeletedViaBitmap(pk)
		if err != nil {
			return err
		}
		if err := d.logOp(wal.RecUpsert, pk, record, ts, updateBit, b); err != nil {
			// The append failed, so the upsert never durably happened:
			// revert the bitmap flip before reporting failure.
			if undo != nil {
				undo()
			}
			return err
		}
		if commit != nil {
			commit() // durably logged: now forward to any in-flight build
		}
		d.cleanSecondariesFromMem(pk, ts)
		d.putAllIndexes(pk, record, ts)
		d.widenFilterFor(record)

	case DeletedKey:
		if err := d.logOp(wal.RecUpsert, pk, record, ts, false, b); err != nil {
			return err
		}
		d.putAllIndexes(pk, record, ts)
		for _, si := range d.secondaries {
			si.addMemDeleted(pk, ts)
		}
		d.widenFilterFor(record)
	}
	d.ingested.Add(1)
	return nil
}

// keyExists checks primary-key uniqueness via the primary key index when
// available (the Section 3.1 optimization), else the primary index.
func (d *Dataset) keyExists(pk []byte) (bool, error) {
	if d.pkIndex != nil {
		_, found, err := d.pkIndex.Get(pk)
		return found, err
	}
	_, found, err := d.primary.Get(pk)
	return found, err
}

// putAllIndexes inserts the new record into the primary index, the primary
// key index, and every secondary index.
func (d *Dataset) putAllIndexes(pk, record []byte, ts int64) {
	d.primary.Put(kv.Entry{Key: pk, Value: record, TS: ts})
	if d.pkIndex != nil {
		d.pkIndex.Put(kv.Entry{Key: pk, TS: ts})
	}
	for _, si := range d.secondaries {
		if sk, ok := si.Spec.Extract(record); ok {
			si.Tree.Put(kv.Entry{Key: kv.ComposeKey(sk, pk), TS: ts})
		}
	}
}

// putAnti inserts anti-matter for pk into the primary and primary key
// indexes.
func (d *Dataset) putAnti(pk []byte, ts int64) {
	d.primary.Put(kv.Entry{Key: pk, TS: ts, Anti: true})
	if d.pkIndex != nil {
		d.pkIndex.Put(kv.Entry{Key: pk, TS: ts, Anti: true})
	}
}

// widenFilterFor widens the memory components' range filter with the
// record's filter key.
func (d *Dataset) widenFilterFor(record []byte) {
	if d.cfg.FilterExtract == nil || record == nil {
		return
	}
	if v, ok := d.cfg.FilterExtract(record); ok {
		d.primary.WidenMemFilter(v)
	}
}

// cleanSecondariesFromMem implements the Section 4.2 optimization: when the
// old record still resides in the primary memory component, it is free to
// produce local anti-matter entries that clean the secondary indexes.
func (d *Dataset) cleanSecondariesFromMem(pk []byte, ts int64) {
	if len(d.secondaries) == 0 {
		return
	}
	old, ok := d.primary.Mem().Get(pk)
	if !ok || old.Anti {
		return
	}
	for _, si := range d.secondaries {
		if sk, has := si.Spec.Extract(old.Value); has {
			si.Tree.Put(kv.Entry{Key: kv.ComposeKey(sk, pk), TS: ts, Anti: true})
		}
	}
}

// markDeletedViaBitmap performs the Mutable-bitmap delete/upsert search
// (Figures 10b, 11b): find the newest version of pk via the memory
// component, the memtables frozen by in-flight flushes, and then the
// primary key index; when it lives in a disk component, set the
// component's bitmap bit and forward the delete to any component under
// construction. A version still in a frozen memtable forwards the delete to
// its flush batch, which applies it to the built component's bitmap before
// install. It reports whether a disk bitmap bit was flipped or forwarded
// (the log record's update bit) and whether the key currently exists.
//
// The returned undo (non-nil only when state was mutated) reverts the
// bitmap flip or un-forwards the delete; the caller invokes it when the
// operation's WAL append fails, so a write reported as failed never leaves
// a half-applied delete. The returned commit (non-nil only when the flip
// must also reach a component under construction) forwards the delete to
// any in-flight merge build and is invoked only AFTER the WAL append
// succeeded — a forward cannot be retracted from a side-file, so it must
// never happen for an operation that ends up failing. Deferring it is
// race-free because the caller holds the exclusive key lock and is
// registered with the dataset lock: the Lock-method builder S-locks our
// key and blocks, and the Side-file close drains writers, so neither can
// slip between the flip and the forward.
func (d *Dataset) markDeletedViaBitmap(pk []byte) (updateBit, existed bool, undo, commit func(), err error) {
	if d.pkIndex == nil {
		return false, false, nil, nil, ErrNoPKIndex
	}
	var lastGone *memtable.Table
	for {
		// Memory component first: a blind Put will supersede it; no bitmap
		// work.
		if e, ok := d.pkIndex.Mem().Get(pk); ok {
			return false, !e.Anti, nil, nil, nil
		}
		if e, tbl, ok := d.pkIndex.FrozenGet(pk); ok {
			if e.Anti {
				return false, false, nil, nil, nil
			}
			if b := d.batchForPKTable(tbl); b != nil {
				forwarded, sealedComp := b.addFrozenDelete(pk)
				if forwarded {
					return true, true, func() { d.unforwardFrozenDelete(b, pk) }, nil, nil
				}
				if sealedComp != nil {
					// The batch sealed (its component is built, the
					// forwarded set already applied): treat the sealed
					// component exactly like a disk-component hit — set
					// its bitmap bit and forward the delete to any merge
					// already building over it.
					_, ordinal, found, err := sealedComp.BTree.Get(pk)
					if err != nil {
						return false, false, nil, nil, err
					}
					if found {
						undo, commit := d.flipDeferred(sealedComp, ordinal, pk)
						return true, true, undo, commit, nil
					}
					// Defensive: the frozen table held pk, so its built
					// component must too; fall through and re-search.
				}
			}
			if lastGone == tbl {
				// Seen twice with no owning batch: the table is frozen but
				// its batch is gone, so a crash is tearing the queue down
				// (and its writer drain is waiting on us — retrying would
				// deadlock) or the maintenance pool closed mid-freeze. The
				// version dies with the frozen memtable; the blind
				// anti-matter put supersedes it exactly like a
				// memory-component hit, and WAL replay reconstructs the
				// delete after the crash. An installed batch never shows
				// this signature: its memtable leaves the frozen queue
				// before its batch registration is dropped.
				return false, true, nil, nil, nil
			}
			lastGone = tbl
			// The owning batch may have just installed; re-run the search
			// against the updated state.
			runtime.Gosched()
			continue
		}
		e, comp, ordinal, found, err := d.pkIndex.GetWithLocation(pk, d.pkIndex.Components())
		if err != nil || !found || e.Anti {
			return false, false, nil, nil, err
		}
		if comp == nil {
			return false, true, nil, nil, nil
		}
		undo, commit := d.flipDeferred(comp, ordinal, pk)
		return true, true, undo, commit, nil
	}
}

// flipDeferred sets a component's validity bit for the entry at ordinal,
// returning an undo that clears the bit again (only when this call flipped
// it) and a commit that forwards the delete to any component being built
// over it. Exactly one of the two must run: undo when the operation's WAL
// append fails, commit after it succeeds.
func (d *Dataset) flipDeferred(comp *lsm.Component, ordinal int64, pk []byte) (undo, commit func()) {
	if comp.Valid != nil && comp.Valid.Set(ordinal) {
		undo = func() { comp.Valid.Unset(ordinal) }
	}
	commit = func() { d.forwardDelete(comp, pk) }
	return undo, commit
}

// unforwardFrozenDelete retracts a delete forwarded into a flush batch
// whose WAL append failed. If the batch sealed in the meantime the
// forwarded set was already applied to the built component's bitmap, so
// the bit is cleared there instead.
func (d *Dataset) unforwardFrozenDelete(b *flushBatch, pk []byte) {
	if comp := b.removeFrozenDelete(pk); comp != nil && comp.Valid != nil {
		if _, ordinal, found, err := comp.BTree.Get(pk); err == nil && found {
			comp.Valid.Unset(ordinal)
		}
	}
}

// forwardDelete propagates a delete into the component currently being
// built from comp, per the configured concurrency-control method.
func (d *Dataset) forwardDelete(comp *lsm.Component, pk []byte) {
	bt := comp.Building.Load()
	if bt == nil {
		return
	}
	if bt.SideFile != nil {
		// Side-file method (Fig 11b): append; if the side-file has been
		// closed, apply the delete to the new component directly.
		if bt.SideFile.Append(pk) {
			return
		}
	}
	// Lock method (Fig 10b lines 6-7), or side-file-closed fallback.
	bt.ForwardDelete(pk)
}

// logOp appends one logical log record and its commit record. On a durable
// device the commit becomes durable through the log's sink — a per-record
// fsync, or (in group-commit mode) one fsync shared with every concurrent
// committer. A failure of THIS operation's appends or covering fsync means
// the write is not durably committed and is surfaced as the operation's
// error (a concurrent writer's failure wedges the dataset via the
// sticky-error precheck instead, without mislabeling writes that did
// commit).
//
// With a non-nil batch the commit record is appended unsynced and its
// durability deferred to the caller's WaitCommitBatch — one covering fsync
// per engine batch instead of one per mutation. Until that wait succeeds
// the write is visible in the memory components but NOT acknowledged;
// callers must not report success before the wait returns.
func (d *Dataset) logOp(t wal.RecordType, pk, record []byte, ts int64, updateBit bool, b *wal.Batch) error {
	if d.log == nil {
		return nil
	}
	id := d.ids.Next()
	if _, err := d.log.AppendChecked(wal.Record{
		TxnID:     id,
		Type:      t,
		Index:     "dataset",
		Key:       append([]byte(nil), pk...),
		Value:     append([]byte(nil), record...),
		TS:        ts,
		UpdateBit: updateBit,
	}); err != nil {
		return err
	}
	if b != nil {
		_, err := d.log.CommitBatched(id, b)
		return err
	}
	_, err := d.log.CommitDurable(id)
	return err
}

// BeginCommitBatch returns a deferred-durability handle when the log runs
// in group-commit mode, nil otherwise (writes then carry their own commit
// durability, byte-for-byte the non-grouped behavior). Pair every non-nil
// handle with exactly one WaitCommitBatch before acknowledging any of the
// batch's writes.
//
// The Mutable-bitmap strategy never defers: its writes flip disk-component
// bitmaps and forward deletes into in-flight builds around the WAL append,
// and that undo/commit pair is only race-free while the writer still holds
// its exclusive key lock — which a batch-end durability wait no longer
// does. Its mutations commit one by one through CommitDurable instead
// (still coalesced with concurrent committers by the group window), so a
// failed covering fsync can always revert the flip under the lock.
func (d *Dataset) BeginCommitBatch() *wal.Batch {
	if d.cfg.Strategy == MutableBitmap {
		return nil
	}
	return d.log.NewBatch()
}

// WaitCommitBatch blocks until every commit deferred into b is covered by
// a WAL fsync. On failure none of the batch's writes may be acknowledged:
// their commit records are dropped from the log's memory image, the log
// is wedged (the dataset turns read-only), and an in-session
// Crash/Recover will not replay them. The writes still sit in the memory
// components — and any of them a mid-batch flush already installed in a
// durable component stays durable — so "failed" means "not guaranteed,
// retry safely", not "certainly absent".
func (d *Dataset) WaitCommitBatch(b *wal.Batch) error {
	if b == nil {
		return nil
	}
	return d.log.WaitBatch(b)
}
