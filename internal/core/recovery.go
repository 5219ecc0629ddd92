package core

import (
	"errors"

	"repro/internal/kv"
	"repro/internal/wal"
)

// Crash simulates a failure under the no-steal/no-force policy
// (Section 2.2): every memory component is lost — the live memtables and
// any memtables frozen by in-flight flushes alike; disk
// components — and, in this simulation, their checkpointed bitmaps —
// survive. Maintenance jobs caught mid-build or mid-merge abandon their
// installs (the trees' install generations change), exactly as a real
// failure discards a half-written component. Use Recover to replay the
// write-ahead log afterwards.
func (d *Dataset) Crash() {
	// crashMu makes the generation bump atomic with respect to multi-tree
	// installs: a flush batch or paired primary/pk merge lands either
	// entirely before this crash (durable) or not at all.
	d.crashMu.Lock()
	defer d.crashMu.Unlock()
	d.abandonPending()
	d.dsLock.Drain(func() {
		d.primary.ResetMem()
		if d.pkIndex != nil {
			d.pkIndex.ResetMem()
		}
		for _, si := range d.secondaries {
			si.Tree.ResetMem()
			si.mu.Lock()
			if si.memDeleted != nil {
				si.memDeleted = make(map[string]int64)
			}
			si.pendingDeleted = nil
			si.mu.Unlock()
		}
	})
}

// ErrNoWAL reports recovery without a write-ahead log.
var ErrNoWAL = errors.New("core: recovery requires the write-ahead log")

// Recover replays committed transactions whose effects were lost in a
// crash. As in AsterixDB (Section 2.2), the system first computes the
// maximum component timestamp across all indexes; committed operations
// beyond it are re-executed from their logical log records. No undo is
// needed: the no-steal policy guarantees disk components hold only
// committed data. Bitmap mutations are replayed only for records whose
// update bit is set (Section 5.2).
func (d *Dataset) Recover() error {
	if d.log == nil {
		return ErrNoWAL
	}
	maxComponentTS := d.maxComponentTS()
	err := d.log.Replay(0, func(r wal.Record) error {
		if r.TS <= maxComponentTS {
			return nil // already durable in a disk component
		}
		// Keep the ingestion clock ahead of every replayed timestamp.
		for cur := d.clock.Load(); cur < r.TS; cur = d.clock.Load() {
			d.clock.CompareAndSwap(cur, r.TS)
		}
		switch r.Type {
		case wal.RecInsert:
			d.putAllIndexes(r.Key, r.Value, r.TS)
			d.widenFilterFor(r.Value)
		case wal.RecUpsert:
			return d.replayUpsert(r)
		case wal.RecDelete:
			return d.replayDelete(r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	d.ingested.Store(d.ingested.Load()) // counters unchanged; kept for clarity
	return nil
}

// maxComponentTS returns the newest timestamp durable in any disk
// component across all indexes (-1 on an empty store): log records at or
// below it are covered and need no replay.
func (d *Dataset) maxComponentTS() int64 {
	maxTS := int64(-1)
	for _, tr := range d.allTrees() {
		for _, c := range tr.Components() {
			if c.ID.MaxTS > maxTS {
				maxTS = c.ID.MaxTS
			}
		}
	}
	return maxTS
}

// replayBitmapMark re-executes a logged bitmap mutation, applying the
// deferred forward immediately: replay is single-threaded and already
// durable, so there is nothing to roll back.
func (d *Dataset) replayBitmapMark(key []byte) error {
	_, _, _, commit, err := d.markDeletedViaBitmap(key)
	if err != nil {
		return err
	}
	if commit != nil {
		commit()
	}
	return nil
}

func (d *Dataset) replayUpsert(r wal.Record) error {
	switch d.cfg.Strategy {
	case Eager:
		old, found, err := d.primary.Get(r.Key)
		if err != nil {
			return err
		}
		for _, si := range d.secondaries {
			newSK, hasNew := si.Spec.Extract(r.Value)
			if found {
				oldSK, hasOld := si.Spec.Extract(old.Value)
				if hasOld && hasNew && kv.Compare(oldSK, newSK) == 0 {
					continue
				}
				if hasOld {
					si.Tree.Put(kv.Entry{Key: kv.ComposeKey(oldSK, r.Key), TS: r.TS, Anti: true})
				}
			}
			if hasNew {
				si.Tree.Put(kv.Entry{Key: kv.ComposeKey(newSK, r.Key), TS: r.TS})
			}
		}
		d.primary.Put(kv.Entry{Key: r.Key, Value: r.Value, TS: r.TS})
		if d.pkIndex != nil {
			d.pkIndex.Put(kv.Entry{Key: r.Key, TS: r.TS})
		}
		if found {
			d.widenFilterFor(old.Value)
		}
		d.widenFilterFor(r.Value)
	case MutableBitmap:
		if r.UpdateBit {
			// Replay the bitmap mutation; Set is idempotent, so records
			// whose bitmap page was checkpointed are harmless to replay.
			if err := d.replayBitmapMark(r.Key); err != nil {
				return err
			}
		}
		d.cleanSecondariesFromMem(r.Key, r.TS)
		d.putAllIndexes(r.Key, r.Value, r.TS)
		d.widenFilterFor(r.Value)
	default: // Validation, DeletedKey
		d.cleanSecondariesFromMem(r.Key, r.TS)
		d.putAllIndexes(r.Key, r.Value, r.TS)
		for _, si := range d.secondaries {
			if si.memDeleted != nil {
				si.addMemDeleted(r.Key, r.TS)
			}
		}
		d.widenFilterFor(r.Value)
	}
	return nil
}

func (d *Dataset) replayDelete(r wal.Record) error {
	switch d.cfg.Strategy {
	case Eager:
		old, found, err := d.primary.Get(r.Key)
		if err != nil {
			return err
		}
		if found {
			for _, si := range d.secondaries {
				if sk, ok := si.Spec.Extract(old.Value); ok {
					si.Tree.Put(kv.Entry{Key: kv.ComposeKey(sk, r.Key), TS: r.TS, Anti: true})
				}
			}
			d.widenFilterFor(old.Value)
		}
	case MutableBitmap:
		if r.UpdateBit {
			if err := d.replayBitmapMark(r.Key); err != nil {
				return err
			}
		}
		d.cleanSecondariesFromMem(r.Key, r.TS)
	default:
		d.cleanSecondariesFromMem(r.Key, r.TS)
		for _, si := range d.secondaries {
			if si.memDeleted != nil {
				si.addMemDeleted(r.Key, r.TS)
			}
		}
	}
	d.putAnti(r.Key, r.TS)
	return nil
}
