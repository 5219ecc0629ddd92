package core

import (
	"slices"

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
// write-ahead log afterwards: it reads the log back from the device, so an
// in-process crash recovers exactly as a reopen after a kill does.
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

// Recover replays the writes whose effects were lost in a crash. As in
// AsterixDB (Section 2.2), the system first computes the maximum component
// timestamp across all indexes, then decodes the log as the device holds
// it (wal.Log.Replay: every segment, each up to its torn tail); every log
// record beyond that timestamp — each one a committed write — is re-executed: the prepare and install steps of Apply,
// at the record's own timestamp. What replay leaves out is what only a live
// write needs — the locks (nothing else runs), the timestamp draw, the log
// append, the ingested/ignored counters, and the existence search unless
// the record's update bit says it flipped a disk bitmap (Section 5.2; Set
// is idempotent, so a flip whose bitmap page was checkpointed is harmless
// to replay). No undo is needed: the no-steal policy guarantees disk
// components hold only committed data.
func (d *Dataset) Recover() error {
	maxComponentTS := d.maxComponentTS()
	var old []byte // an Eager update's copy of the record it replaces
	return d.log.Replay(func(r wal.Record) error {
		if r.TS <= maxComponentTS {
			return nil // already durable in a disk component
		}
		op := kv.Op(slices.Index(recordTypes[:], r.Type))
		// Keep the ingestion clock ahead of every replayed timestamp.
		for cur := d.clock.Load(); cur < r.TS; cur = d.clock.Load() {
			d.clock.CompareAndSwap(cur, r.TS)
		}
		p, err := d.prepare(op, r.Key, r.UpdateBit, old)
		if err != nil {
			return err
		}
		d.install(op, r.Key, r.Value, r.TS, p)
		if p.old != nil {
			old = p.old[:0]
		}
		return nil
	})
}

// maxComponentTS returns the newest timestamp durable in any disk
// component across all indexes (-1 on an empty store): log records at or
// below it are covered and need no replay.
func (d *Dataset) maxComponentTS() int64 {
	maxTS := int64(-1)
	for _, nt := range d.trees {
		for _, c := range nt.tree.Components() {
			if c.ID.MaxTS > maxTS {
				maxTS = c.ID.MaxTS
			}
		}
	}
	return maxTS
}
