package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/kv"
	"repro/internal/lsm"
	"repro/internal/memtable"
	"repro/internal/storage"
	"repro/internal/wal"
)

// recordTypes maps a mutation's op onto its logical log record type.
var recordTypes = [...]wal.RecordType{
	kv.OpUpsert: wal.RecUpsert,
	kv.OpInsert: wal.RecInsert,
	kv.OpDelete: wal.RecDelete,
}

// Apply runs one mutation as a record-level write transaction and reports
// whether it took effect: upserts always do, an insert of an existing key
// and a delete of a missing one are ignored (Section 3.1). It is the only
// write path: single writes, engine batches and — through the same prepare
// and install steps — WAL replay.
//
// With a non-nil batch the log record is appended unsynced and registered
// in b, and the write may only be acknowledged after WaitCommitBatch(b)
// succeeds. A nil batch makes the write durable before Apply returns.
//
// Apply retains none of m's bytes after it returns: the memory components
// copy the key and record they keep, the log encodes the record into its
// segment, and every side structure that remembers a key (the lock table,
// a flush batch's forwarded deletes, a secondary's deleted-key set, a merge
// build's side-file) stores its own copy. The caller may reuse or overwrite
// PK and Record at once — the server applies writes straight out of its
// pooled receive buffers. TestApplyRetainsNoCallerBytes holds every
// strategy to this.
func (d *Dataset) Apply(m kv.Mutation, b *wal.Batch) (applied bool, err error) {
	if int(m.Op) >= len(recordTypes) {
		return false, fmt.Errorf("core: unknown mutation op %d", m.Op)
	}
	if applied, err = d.applyLocked(m, b); err != nil || !applied {
		return false, err
	}
	// The flush check runs after both locks are released — flushing drains
	// writers, so it must never run while this writer is still registered.
	return true, d.maybeFlush()
}

// Insert adds a new record under pk. It returns false when the key already
// exists.
func (d *Dataset) Insert(pk, record []byte) (bool, error) {
	return d.Apply(kv.Mutation{Op: kv.OpInsert, PK: pk, Record: record}, nil)
}

// Upsert inserts record under pk, replacing any existing record.
func (d *Dataset) Upsert(pk, record []byte) error {
	_, err := d.Apply(kv.Mutation{Op: kv.OpUpsert, PK: pk, Record: record}, nil)
	return err
}

// Delete removes the record under pk, if any. It returns false when the key
// does not exist.
func (d *Dataset) Delete(pk []byte) (bool, error) {
	return d.Apply(kv.Mutation{Op: kv.OpDelete, PK: pk}, nil)
}

// applyLocked is the live write: the writer is registered with the dataset
// lock (so Side-file drains can wait for it) and holds an exclusive lock on
// the primary key (Section 5.2) across prepare, log and install.
//
// The ingestion timestamp is drawn INSIDE the registered window. This
// ordering is load-bearing for recovery: flushes freeze memtables under a
// writer drain, so every timestamp issued before a freeze has its entry in
// the frozen memtable, and a flushed component's MaxTS can never cover a
// timestamp whose write is still in flight. WAL replay (and on-disk WAL
// compaction) drop records with TS <= the maximum durable component
// timestamp — drawing the timestamp before registering would let a stalled
// writer log an acknowledged write that replay then skips forever.
func (d *Dataset) applyLocked(m kv.Mutation, b *wal.Batch) (bool, error) {
	d.dsLock.Enter()
	defer d.dsLock.Exit()
	d.locks.Lock(m.PK, lockExclusive)
	defer d.locks.Unlock(m.PK, lockExclusive)
	// A sticky WAL-durability failure makes the dataset read-only: fail
	// here, before prepare mutates shared state (the Mutable-bitmap search
	// flips disk bitmaps before logging).
	if d.log != nil {
		if err := d.log.DeviceErr(); err != nil {
			return false, err
		}
	}
	ts := d.NextTS()
	p, err := d.prepare(m.Op, m.PK, true)
	if err != nil {
		return false, err
	}
	if p.skip {
		d.ignored.Add(1)
		return false, nil
	}
	if err := d.logOp(recordTypes[m.Op], m.PK, m.Record, ts, p.updateBit, b); err != nil {
		// The write failed and is not acknowledged: revert the bitmap flip
		// before reporting failure. (A record whose covering fsync failed
		// is whole in the log area, so a crash may still replay it, flip
		// included.)
		if p.undo != nil {
			p.undo()
		}
		return false, err
	}
	d.install(m.Op, m.PK, m.Record, ts, p)
	d.ingested.Add(1)
	return true, nil
}

// prepared is what a mutation's reads learned, handed from prepare to
// install by value.
type prepared struct {
	// skip marks a live no-op: an insert of an existing key, a delete of a
	// missing one.
	skip bool
	// found and old are the version being replaced (Eager only).
	found bool
	old   []byte
	// updateBit, undo and commit are markDeletedViaBitmap's results
	// (Mutable-bitmap only).
	updateBit    bool
	undo, commit func()
}

// prepare runs the strategy's reads for one mutation, before it is logged.
// search selects the existence search — the insert's uniqueness lookup, the
// Mutable-bitmap pk-index search that flips the old version's bitmap bit. A
// live write always runs it. Replay runs it only for a record whose update
// bit says the search flipped a disk bitmap (Section 5.2): its other
// answer, skip, was settled when the record was logged.
func (d *Dataset) prepare(op kv.Op, pk []byte, search bool) (p prepared, err error) {
	if op == kv.OpInsert {
		// Every strategy handles an insert the same way: a uniqueness
		// check, then a blind put into every index.
		if search {
			p.skip, err = d.keyExists(pk)
		}
		return p, err
	}
	switch d.cfg.Strategy {
	case Eager:
		// Point lookup to fetch the old record, so anti-matter can clean
		// the secondary indexes and the filters can be widened with it
		// (Section 3.1, Figure 3).
		p.found, err = d.primary.Get(pk, func(old kv.Entry) {
			p.old = append([]byte(nil), old.Value...) // outlives the page pin
		})
		p.skip = !p.found && op == kv.OpDelete
	case MutableBitmap:
		// The primary key index locates the old record; if it lives in a
		// disk component its bitmap bit is set (Figure 9).
		if search {
			var existed bool
			p.updateBit, existed, p.undo, p.commit, err = d.markDeletedViaBitmap(pk)
			p.skip = !existed && op == kv.OpDelete
		}
	}
	// Validation and Deleted-key writes are blind (Figure 4, Section 4.1).
	return p, err
}

// install puts a prepared, durably logged mutation into the memory
// components at timestamp ts. Replay calls it with the record's own
// timestamp.
func (d *Dataset) install(op kv.Op, pk, record []byte, ts int64, p prepared) {
	if p.commit != nil {
		p.commit() // durably logged: now forward to any in-flight build
	}
	switch {
	case d.cfg.Strategy == Eager:
		d.installEager(op, pk, record, ts, p)
		return
	case op == kv.OpInsert:
		// A new key leaves no old version to clean up after.
	case d.cfg.Strategy == DeletedKey:
		for _, si := range d.secondaries {
			si.addMemDeleted(pk, ts)
		}
	default: // Validation, MutableBitmap
		// Obsolete secondary entries are repaired later (Section 4.2) or
		// hidden by the bitmap; only what the memory component still holds
		// is cleaned now.
		d.cleanSecondariesFromMem(pk, ts)
	}
	if op == kv.OpDelete {
		// Anti-matter goes to the primary and primary key indexes only —
		// under Mutable-bitmap too (Section 5.2): the bitmap is an auxiliary
		// structure and must not change LSM semantics, and the anti-matter
		// keeps Validation-maintained secondaries repairable.
		d.putAnti(pk, ts)
		return
	}
	// Blind insert into every index (Figure 4); filters maintained with the
	// new record only.
	d.putRecord(pk, record, ts)
	for _, si := range d.secondaries {
		if sk, ok := si.Spec.Extract(record); ok {
			si.put(sk, pk, ts, false)
		}
	}
	d.widenFilterFor(record)
}

// put writes the (secondary key, primary key) entry, or its anti-matter,
// into the index's memory component. The composite key is built in a stack
// buffer (longer keys spill to the heap): the memtable copies what it keeps.
func (si *SecondaryIndex) put(sk, pk []byte, ts int64, anti bool) {
	var scratch [64]byte
	si.Tree.Put(kv.Entry{Key: kv.AppendComposeKey(scratch[:0], sk, pk), TS: ts, Anti: anti})
}

// installEager keeps every index up to date at write time (Figure 3):
// anti-matter cleans each secondary index whose key changed and only those
// get the new entry; filters are maintained with both the old and the new
// record. An insert arrives with no old version and so puts blindly.
func (d *Dataset) installEager(op kv.Op, pk, record []byte, ts int64, p prepared) {
	del := op == kv.OpDelete
	for _, si := range d.secondaries {
		var newSK, oldSK []byte
		var hasNew, hasOld bool
		if !del {
			newSK, hasNew = si.Spec.Extract(record)
		}
		if p.found {
			oldSK, hasOld = si.Spec.Extract(p.old)
		}
		if hasOld && hasNew && bytes.Equal(oldSK, newSK) {
			continue // unchanged secondary key: skip maintenance entirely
		}
		if hasOld {
			si.put(oldSK, pk, ts, true)
		}
		if hasNew {
			si.put(newSK, pk, ts, false)
		}
	}
	if p.found {
		d.widenFilterFor(p.old)
	}
	if del {
		d.putAnti(pk, ts)
		return
	}
	d.putRecord(pk, record, ts)
	d.widenFilterFor(record)
}

// keyExists checks primary-key uniqueness via the primary key index when
// available (the Section 3.1 optimization), else the primary index.
func (d *Dataset) keyExists(pk []byte) (bool, error) {
	if d.pkIndex != nil {
		return d.pkIndex.Get(pk, nil)
	}
	return d.primary.Get(pk, nil)
}

// putRecord inserts the new record into the primary index and the primary
// key index.
func (d *Dataset) putRecord(pk, record []byte, ts int64) {
	d.primary.Put(kv.Entry{Key: pk, Value: record, TS: ts})
	if d.pkIndex != nil {
		d.pkIndex.Put(kv.Entry{Key: pk, TS: ts})
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
			si.put(sk, pk, ts, true)
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
	vanished := false
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
					ordinal, found, err := sealedComp.BTree.Get(pk, nil)
					if errors.Is(err, storage.ErrNoSuchFile) && !vanished {
						// Installed, merged away and unlinked since the
						// batch handed it out: the merged component holds
						// the version now. Search again, once.
						vanished = true
						continue
					}
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
		v := d.pkIndex.ReadView()
		comp, ordinal, found, err := d.pkIndex.GetWithLocation(pk, v.Components)
		v.Release()
		if err != nil || !found {
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
		if ordinal, found, err := comp.BTree.Get(pk, nil); err == nil && found {
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

// logOp logs one mutation as one record; the record is the commit (see
// package wal). With a nil batch it is durable when logOp returns nil —
// covered by one fsync shared with every concurrent writer of its commit
// group. A failure of THIS record's append or covering fsync
// means the write is not durably committed and is surfaced as the
// operation's error (a concurrent writer's failure wedges the dataset via
// the sticky-error precheck instead, without mislabeling writes that did
// commit).
//
// With a non-nil batch the record's durability is deferred to the caller's
// WaitCommitBatch — one covering fsync per engine batch instead of one per
// mutation. Until that wait succeeds the write is visible in the memory
// components but NOT acknowledged; callers must not report success before
// the wait returns.
func (d *Dataset) logOp(t wal.RecordType, pk, record []byte, ts int64, updateBit bool, b *wal.Batch) error {
	if d.log == nil {
		return nil
	}
	_, err := d.log.Append(wal.Record{
		Type:      t,
		TS:        ts,
		UpdateBit: updateBit,
		Key:       pk, // encoded into the device's log area, not retained
		Value:     record,
	}, b)
	return err
}

// BeginCommitBatch empties the caller's handle b and returns it, or nil when
// the dataset has no log (nothing to defer) or uses Mutable-bitmap (its
// writes carry their own commits, see below). b keeps its encode buffer, so
// a caller that reuses its handle allocates nothing per record.
// Pair every non-nil handle with exactly one WaitCommitBatch before
// acknowledging any of the batch's writes.
//
// The Mutable-bitmap strategy never defers: its writes flip disk-component
// bitmaps and forward deletes into in-flight builds around the WAL append,
// and that undo/commit pair is only race-free while the writer still holds
// its exclusive key lock — which a batch-end durability wait no longer
// does. Its mutations commit one by one instead (still coalesced with
// concurrent writers by the commit group), so a failed covering fsync can
// always revert the flip under the lock.
func (d *Dataset) BeginCommitBatch(b *wal.Batch) *wal.Batch {
	if d.cfg.Strategy == MutableBitmap {
		return nil
	}
	return d.log.BeginBatch(b)
}

// WaitCommitBatch blocks until every record deferred into b is covered by
// a WAL fsync. On failure none of the batch's writes may be acknowledged
// and the log is wedged (the dataset turns read-only). The writes still sit
// in the memory components, their records are whole in the log area, and a
// mid-batch flush may already have installed some of them in a durable
// component — so after any crash each of them may or may not be replayed:
// "failed" means "not guaranteed, retry safely", not "certainly absent".
func (d *Dataset) WaitCommitBatch(b *wal.Batch) error {
	if b == nil {
		return nil
	}
	return d.log.WaitBatch(b)
}
