package lsmstore_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/lsm"
	"repro/internal/storage"
	"repro/internal/storage/filedev"
	"repro/internal/storetest"
	"repro/internal/workload"
	"repro/lsmstore"
)

// The reclamation battery: a store gives back the files of merged-away
// components when their last reader leaves and the log segments a durable
// flush covers — so what it holds is a function of its data, not of how
// long it has run — and never before the manifest that makes them garbage
// is durable.

// footprint is what a store holds on to, measured from outside.
type footprint struct {
	dirBytes   int64 // bytes under the data directory
	devFiles   int   // component files the devices list
	handles    int   // open file descriptors under the data directory
	logRecords int   // records the shards' logs retain
}

func measureFootprint(t *testing.T, db *lsmstore.DB, dir string) footprint {
	t.Helper()
	var f footprint
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			f.dirBytes += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < db.NumShards(); i++ {
		f.devFiles += len(db.Shard(i).Config().Store.Device().List())
		f.logRecords += db.Shard(i).Log().Len()
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to count open handles with: %v", err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			f.handles++
		}
	}
	return f
}

// overwriteCycles rewrites the same keys, with the same secondary keys,
// cycles times, flushing (and draining maintenance) after every pass: the
// live data is the same whatever cycles is.
func overwriteCycles(t *testing.T, db *lsmstore.DB, keys, cycles int) {
	t.Helper()
	for c := 0; c < cycles; c++ {
		rewrite(t, db, keys, c)
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// rewrite upserts keys 0..keys-1 once more, in batches of 250, each with the
// same secondary key as ever and a creation time of cycle c's own.
func rewrite(t *testing.T, db *lsmstore.DB, keys, c int) {
	t.Helper()
	muts := make([]lsmstore.Mutation, keys)
	for k := range muts {
		id := uint64(k)
		muts[k] = lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: tweetPK(id), Record: tweetRec(id, uint32(k%32), int64(c*keys+k))}
	}
	for len(muts) > 0 {
		n := min(len(muts), 250)
		if err := db.ApplyBatch(muts[:n]); err != nil {
			t.Fatal(err)
		}
		muts = muts[n:]
	}
}

// TestReclaimBounded: overwriting the same 2 000 keys for 10 and for 40
// flush cycles must leave the same footprint. Before components and log
// records had a lifetime every one of the four figures grew with the cycle
// count.
func TestReclaimBounded(t *testing.T) {
	measure := func(cycles int) footprint {
		dir := t.TempDir()
		opts := diskOptions(lsmstore.Validation, dir)
		opts.Shards, opts.MaintenanceWorkers = 2, 2
		opts.MemoryBudget = 8 << 20 // one flush per cycle, the explicit one: both runs end in the same merge state
		db, err := lsmstore.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		overwriteCycles(t, db, 2000, cycles)
		if st := db.Stats(); st.RetiredFiles != 0 {
			t.Errorf("%d cycles: %d retired files outlive Flush on a store with no readers", cycles, st.RetiredFiles)
		}
		return measureFootprint(t, db, dir)
	}
	few, many := measure(10), measure(40)
	t.Logf("10 cycles: %+v", few)
	t.Logf("40 cycles: %+v", many)
	within := func(name string, a, b int64) {
		if diff := max(a, b) - min(a, b); float64(diff) > 0.10*float64(max(a, b)) {
			t.Errorf("%s grows with uptime, not with data: %d after 10 cycles, %d after 40", name, a, b)
		}
	}
	within("bytes under the directory", few.dirBytes, many.dirBytes)
	within("component files on the devices", int64(few.devFiles), int64(many.devFiles))
	within("open handles", int64(few.handles), int64(many.handles))
	within("retained log records", int64(few.logRecords), int64(many.logRecords))
}

// TestHotSetLogBounded is TestReclaimBounded's sibling for a hot set
// overwritten in place with no Flush: 2 000 keys rewritten for 80 and for
// 320 cycles. Every overwrite is charged to the memory budget, so the hot
// set crosses it and flushes like new keys do, and each durable flush gives
// back the log it covers: the retained log stays within a few budgets at
// both counts. When overwrites of a key in the memtable went uncharged the
// set never flushed, and the log grew with every cycle (23.6 MB after 320).
func TestHotSetLogBounded(t *testing.T) {
	const keys, cycles = 2000, 80
	opts := diskOptions(lsmstore.Validation, t.TempDir())
	opts.Shards, opts.MaintenanceWorkers = 2, 2
	opts.MemoryBudget = 1 << 20
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	limit := int64(3 * opts.MemoryBudget * opts.Shards)
	for c := 0; c < 4*cycles; c++ {
		rewrite(t, db, keys, c)
		if c+1 == cycles || c+1 == 4*cycles {
			wal := db.Stats().WALBytes
			t.Logf("%d cycles: %d log bytes retained", c+1, wal)
			if wal > limit {
				t.Errorf("%d cycles of %d keys overwritten in place: %d log bytes retained, want at most %d (3 budgets per shard)",
					c+1, keys, wal, limit)
			}
		}
	}
}

// componentPath names the file of a component on shard 0.
func componentPath(dir string, id storage.FileID) string {
	return filepath.Join(dir, "shard-0000", filedev.ComponentFileName(id))
}

// TestStaleReaderKeepsRetiredComponents holds a pinned view and a GetWith
// parked in its visitor across merges that retire every component they
// list. The store has no read cache, so the visitor runs inside the
// primary tree's Get, which pins its own view and the leaf page the record
// lies on until the visitor returns. Reads through the view return the old
// bytes, the parked record still holds them when it resumes, the files
// stay on the device until both let go — and are unlinked, by maintenance,
// once they have.
func TestStaleReaderKeepsRetiredComponents(t *testing.T) {
	dir := t.TempDir()
	opts := diskOptions(lsmstore.Validation, dir)
	opts.MaintenanceWorkers = 2
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const keys = 1500
	overwriteCycles(t, db, keys, 2) // two components per tree, nothing in memory
	oldRec := func(k int) []byte { return tweetRec(uint64(k), uint32(k%32), int64(keys+k)) }

	primary := db.Shard(0).Primary()
	view := primary.ReadView()
	if len(view.Components) == 0 {
		t.Fatal("nothing on disk to pin")
	}
	var pinned []storage.FileID
	for _, c := range view.Components {
		pinned = append(pinned, c.BTree.FileID())
	}

	// A point read, parked inside its visitor with the record's page pinned.
	parked, resume := make(chan struct{}), make(chan struct{})
	var parkedRec []byte
	getErr := make(chan error, 1)
	go func() {
		found, err := db.GetWith(tweetPK(0), func(rec []byte) {
			close(parked)
			<-resume
			parkedRec = bytes.Clone(rec)
		})
		if err == nil && !found {
			err = errors.New("key 0 not found")
		}
		getErr <- err
	}()
	<-parked

	// Merge the pinned components away, twice over.
	overwriteCycles(t, db, keys, 4)
	dev := db.Shard(0).Config().Store.Device()
	for _, id := range pinned {
		if !slices.Contains(dev.List(), id) {
			t.Fatalf("component file %d left the device while a view pins it", id)
		}
		if _, err := os.Stat(componentPath(dir, id)); err != nil {
			t.Fatalf("component file %d unlinked while a view pins it: %v", id, err)
		}
	}
	for _, c := range primary.Components() {
		if slices.Contains(pinned, c.BTree.FileID()) {
			t.Fatalf("component %d was not merged away; the test pins nothing stale", c.BTree.FileID())
		}
	}
	if st := db.Stats(); st.RetiredFiles == 0 {
		t.Fatal("Stats.RetiredFiles is 0 while readers pin merged-away components")
	}
	// Every read through the stale view succeeds, with the bytes it pinned.
	disk := view
	disk.Mem, disk.Flushing = nil, nil
	for k := 0; k < keys; k++ {
		var got []byte
		found, err := disk.Get(tweetPK(uint64(k)), func(e kv.Entry, _ *lsm.Component, _ int64) { got = bytes.Clone(e.Value) })
		if err != nil || !found || !bytes.Equal(got, oldRec(k)) {
			t.Fatalf("key %d through the stale view: found=%v err=%v value=%x", k, found, err, got)
		}
	}

	view.Release()
	// The parked read alone still pins them, through a flush that drains
	// maintenance.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, id := range pinned {
		if _, err := os.Stat(componentPath(dir, id)); err != nil {
			t.Fatalf("component file %d unlinked while a parked read pins it: %v", id, err)
		}
	}
	close(resume)
	if err := <-getErr; err != nil {
		t.Fatalf("read across the merges: %v", err)
	}
	if !bytes.Equal(parkedRec, oldRec(0)) {
		t.Fatalf("read across the merges kept %x, want %x", parkedRec, oldRec(0))
	}
	// The last release only queued the files; a maintenance worker unlinks.
	deadline := time.Now().Add(10 * time.Second)
	for {
		gone := db.Stats().RetiredFiles == 0
		for _, id := range pinned {
			_, err := os.Stat(componentPath(dir, id))
			gone = gone && os.IsNotExist(err) && !slices.Contains(dev.List(), id)
		}
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pinned files %v still around 10 s after the last release (device lists %v)", pinned, dev.List())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKillRightAfterCut kills the store straight after a durable flush cut
// its log, with and without a tail of later writes: every acknowledged
// write is served from the crash image, under every strategy. Under
// Mutable-bitmap the tail's overwrites flip validity bits on the flushed
// components, and those flips exist nowhere but in the tail's log records.
func TestKillRightAfterCut(t *testing.T) {
	for _, strategy := range []lsmstore.Strategy{lsmstore.Eager, lsmstore.Validation, lsmstore.MutableBitmap, lsmstore.DeletedKey} {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%v/workers=%d", strategy, workers), func(t *testing.T) {
				dir := t.TempDir()
				opts := diskOptions(strategy, dir)
				opts.MaintenanceWorkers = workers
				db, err := lsmstore.Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				check := func(when string, ids []uint64) {
					t.Helper()
					want := storeImage(t, db, ids, validationFor(strategy))
					re, _ := storetest.KillAndReopen(t, dir, opts)
					defer re.Close()
					if got := storeImage(t, re, ids, validationFor(strategy)); got != want {
						t.Fatalf("%s: crash image diverges:\n got %s\nwant %s", when, got, want)
					}
				}
				ids := mixedWorkload(t, db, 600, 61)
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				if n := db.Shard(0).Log().Len(); n != 0 {
					t.Fatalf("the log retains %d records after a durable flush", n)
				}
				if segs, _ := filepath.Glob(filepath.Join(dir, "shard-0000", "wal-*.log")); len(segs) != 1 {
					t.Fatalf("log segments after a durable flush: %v, want the live one alone", segs)
				}
				check("kill right after the cut", ids)
				// Same id stream again: updates and deletes of flushed keys.
				ids = append(ids, mixedWorkload(t, db, 250, 61)...)
				check("kill with a tail behind the cut", ids)
			})
		}
	}
}

// TestSnapshotUnderReclaim freezes crash images of a store that is busy
// flushing, merging, unlinking and cutting its log under concurrent
// writers. Every image must reopen and serve every write acknowledged
// before its copy began, at that version or a later one.
func TestSnapshotUnderReclaim(t *testing.T) {
	dir := t.TempDir()
	opts := diskOptions(lsmstore.Validation, dir)
	opts.Shards, opts.MaintenanceWorkers = 2, 2
	opts.MemoryBudget = 32 << 10
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const writers, keysPerWriter = 2, 2000 // many times the memory budget: every pass flushes
	ledger := storetest.NewLedger()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for version := int64(1); !stop.Load(); version++ {
				const batch = 50
				for k := 0; k < keysPerWriter && !stop.Load(); k += batch {
					muts := make([]lsmstore.Mutation, batch)
					for i := range muts {
						id := uint64(w*keysPerWriter + k + i)
						muts[i] = lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: tweetPK(id), Record: tweetRec(id, uint32(id%32), version)}
					}
					if err := db.ApplyBatch(muts); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					for _, m := range muts {
						ledger.Ack(binary.BigEndian.Uint64(m.PK), m.Record)
					}
				}
			}
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	for ledger.Len() < writers*keysPerWriter {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		// Let at least one more flush land between images, so each copy
		// races real installs, unlinks and cuts.
		flushes := db.Stats().Maintenance.Flushes
		for deadline := time.Now().Add(10 * time.Second); db.Stats().Maintenance.Flushes == flushes && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		acked := ledger.Snapshot()
		snap := t.TempDir()
		if err := snapshotStoreDir(dir, snap); err != nil {
			t.Fatal(err)
		}
		imgOpts := opts
		imgOpts.Dir = snap
		re, err := lsmstore.Open(imgOpts)
		if err != nil {
			t.Fatalf("snapshot %d does not reopen: %v", i, err)
		}
		for id, rec := range acked {
			got, found, err := re.Get(tweetPK(id))
			if err != nil || !found {
				t.Fatalf("snapshot %d: acknowledged key %d: found=%v err=%v", i, id, found, err)
			}
			want, _ := workload.CreationOf(rec)
			if have, _ := workload.CreationOf(got); have < want {
				t.Fatalf("snapshot %d: key %d is at version %d, acknowledged at %d", i, id, have, want)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats(); st.Maintenance.Merges == 0 {
		t.Fatal("no merge ran while snapshotting; the test raced nothing")
	}
}
