package lsm

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/kv"
	"repro/internal/storage"
)

// flushed builds a tree with n flushed components of 100 keys each, every
// component overwriting the same keys.
func flushed(t *testing.T, n int, opts func(*Options)) *Tree {
	t.Helper()
	tr, _ := newTestTree(t, 1024, opts)
	for c := 0; c < n; c++ {
		for i := 0; i < 100; i++ {
			tr.Put(kv.Entry{Key: key(i), Value: val(c*1000 + i), TS: int64(c*100 + i)})
		}
		if _, err := tr.Flush(uint64(c + 1)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func mergeAll(t *testing.T, tr *Tree) {
	t.Helper()
	res, err := tr.Merge(MergeSpec{Lo: 0, Hi: tr.NumDiskComponents(), DropAnti: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Install(res); err != nil {
		t.Fatal(err)
	}
}

// TestViewPinsMergedAwayComponents: a merge install retires nothing a view
// still lists. The files stay on the device and readable through the view;
// the last release queues them — once, without touching the device — and
// whoever takes the queue deletes them.
func TestViewPinsMergedAwayComponents(t *testing.T) {
	retires := 0
	tr := flushed(t, 3, func(o *Options) { o.OnRetire = func() { retires++ } })
	dev := tr.Options().Store.Device()
	view, second := tr.ReadView(), tr.ReadView()
	var pinned []storage.FileID
	for _, c := range view.Components {
		pinned = append(pinned, c.BTree.FileID())
	}

	mergeAll(t, tr)
	if got := tr.TakeRetired(nil); len(got) != 0 || retires != 0 {
		t.Fatalf("retired %v (%d callbacks) while two views pin the inputs", got, retires)
	}
	if tr.RetiredFiles() != 3 {
		t.Fatalf("RetiredFiles = %d with three merged-away components pinned", tr.RetiredFiles())
	}
	disk := view
	disk.Mem, disk.Flushing = nil, nil
	for i := 0; i < 100; i++ { // the newest pinned component still answers
		var got []byte
		found, err := disk.Get(key(i), func(e kv.Entry, _ *Component, _ int64) { got = bytes.Clone(e.Value) })
		if err != nil || !found || !bytes.Equal(got, val(2000+i)) {
			t.Fatalf("key %d through the pinned view: %v %v %q", i, found, err, got)
		}
	}

	view.Release()
	if got := tr.TakeRetired(nil); len(got) != 0 {
		t.Fatalf("retired %v while one view still pins the inputs", got)
	}
	second.Release()
	for _, id := range pinned {
		if !slices.Contains(dev.List(), id) {
			t.Fatalf("the last release deleted file %d itself; it may only queue it", id)
		}
	}
	got := tr.TakeRetired(nil)
	slices.Sort(got)
	if !slices.Equal(got, pinned) || retires != 1 || tr.RetiredFiles() != 0 {
		t.Fatalf("retired %v (%d callbacks, %d owed), want %v once", got, retires, tr.RetiredFiles(), pinned)
	}
}

// TestAbandonedInstallDeletesWhatItBuilt: a merge whose install is refused
// — the tree was reset under it, or another merge took its inputs — leaves
// no file behind.
func TestAbandonedInstallDeletesWhatItBuilt(t *testing.T) {
	tr := flushed(t, 3, nil)
	dev := tr.Options().Store.Device()
	before := dev.List()
	res, err := tr.Merge(MergeSpec{Lo: 0, Hi: 3, DropAnti: true})
	if err != nil {
		t.Fatal(err)
	}
	tr.ResetMem() // a crash between build and install
	if err := tr.Install(res); !errors.Is(err, ErrStaleInstall) {
		t.Fatalf("install after a reset = %v, want ErrStaleInstall", err)
	}
	if got := dev.List(); !slices.Equal(got, before) {
		t.Fatalf("device holds %v after the abandoned merge, want %v", got, before)
	}
}

// TestViewsUnderConcurrentMerges hammers pins and releases against flushes
// and merges (run under -race): every read through a pinned view succeeds,
// and when the dust settles nothing is owed but the queue.
func TestViewsUnderConcurrentMerges(t *testing.T) {
	tr := flushed(t, 2, nil)
	store := tr.Options().Store
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := tr.ReadView()
				v.Mem, v.Flushing = nil, nil
				if found, err := v.Get(key(i%100), func(kv.Entry, *Component, int64) {}); err != nil || !found {
					t.Errorf("read through a pinned view: found=%v err=%v", found, err)
				}
				v.Release()
			}
		}()
	}
	for c := 2; c < 40; c++ {
		for i := 0; i < 100; i++ {
			tr.Put(kv.Entry{Key: key(i), Value: val(c*1000 + i), TS: int64(c*100 + i)})
		}
		if _, err := tr.Flush(uint64(c + 1)); err != nil {
			t.Fatal(err)
		}
		mergeAll(t, tr)
		for _, id := range tr.TakeRetired(nil) { // the dataset's job: unlink what no view lists
			store.Delete(id)
		}
	}
	close(stop)
	wg.Wait()
	for _, id := range tr.TakeRetired(nil) {
		store.Delete(id)
	}
	if owed, files := tr.RetiredFiles(), store.Device().List(); owed != 0 || len(files) != 1 {
		t.Fatalf("%d files owed and %v on the device after every reader left, want the one live component", owed, files)
	}
}
