package filedev

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// TestAppendWriteThroughAllocatesNothing: once the device keeps a free run,
// appending pages — every appendBatchPages-th of which writes its run
// through and hands it back — allocates nothing. The file's page table is
// sized ahead: its amortized growth, 8 bytes a page, is the one thing a page
// still adds to the heap. An install then leaves the device holding no run.
func TestAppendWriteThroughAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not checked under -race")
	}
	const pageSize, pages = 4 << 10, 1000
	d, err := Open(t.TempDir(), storage.ScaledHDD(pageSize))
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, d)
	id := d.Create()
	sizes := []int{pageSize, 19, pageSize - 1, 300}
	src := bytes.Repeat([]byte{7}, pageSize)
	appendPages := func() {
		for i := range pages {
			if _, err := d.AppendPage(id, src[:sizes[i%len(sizes)]]); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.mu.Lock()
	f := d.files[id]
	f.offs = slices.Grow(f.offs, 2*pages) // AllocsPerRun appends once to warm up
	d.mu.Unlock()
	allocs := testing.AllocsPerRun(1, appendPages)
	if n, err := d.NumPages(id); err != nil || n != 2*pages {
		t.Fatalf("NumPages = %d, %v, want %d", n, err, 2*pages)
	}
	d.mu.Lock()
	written := f.written
	d.mu.Unlock()
	if written < 2*pages-appendBatchPages {
		t.Fatalf("%d of %d pages written through", written, 2*pages)
	}
	if allocs != 0 {
		t.Errorf("appending and writing through %d pages allocated %v objects, want 0", pages, allocs)
	}
	// An install writes every run through and lets the free ones go.
	if err := d.SaveManifest(nil); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if f.run != nil || len(d.freeRuns) != 0 {
		t.Fatalf("after SaveManifest the device holds %d free runs and the file a run of %d bytes, want none", len(d.freeRuns), len(f.run))
	}
}

// TestBufferedReadsSurviveRunRecycling: a page still in its file's run is
// copied out under the device mutex, so a read racing the write-through
// that hands the run to another file's appends returns the bytes written,
// never the next file's. Writers append to four files, so the device's two
// free runs change hands constantly; readers read each file's newest page,
// which is usually still in a run. Run it under -race too.
func TestBufferedReadsSurviveRunRecycling(t *testing.T) {
	const files, perFile, readers = 4, 40 * appendBatchPages, 4
	const pageSize = 512
	d := openTestDev(t, t.TempDir())
	defer mustClose(t, d)
	if d.PageSize() != pageSize {
		t.Fatalf("page size %d, want %d", d.PageSize(), pageSize)
	}
	// pageOf names its file and page in its first bytes and fills the rest
	// with a byte of both, over a length that varies from page to page.
	pageOf := func(file, page int) []byte {
		p := binary.BigEndian.AppendUint32(nil, uint32(file))
		p = binary.BigEndian.AppendUint32(p, uint32(page))
		return append(p, bytes.Repeat([]byte{byte(file*perFile + page)}, 8+(page*37)%(pageSize-16))...)
	}
	ids := make([]storage.FileID, files)
	published := make([]atomic.Int64, files) // pages appended to each file
	for i := range ids {
		ids[i] = d.Create()
	}
	var wg sync.WaitGroup
	var done atomic.Bool
	for f := range files {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range perFile {
				if _, err := d.AppendPage(ids[f], pageOf(f, p)); err != nil {
					t.Error(err)
					return
				}
				published[f].Store(int64(p + 1))
			}
		}()
	}
	var reads, mismatches atomic.Int64
	var rwg sync.WaitGroup
	for r := range readers {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			dst := make([]byte, 0, pageSize)
			for i := r; !done.Load(); i++ {
				f := i % files
				n := int(published[f].Load())
				if n == 0 {
					continue
				}
				got, err := d.ReadPage(ids[f], n-1, dst)
				if err != nil {
					t.Error(err)
					return
				}
				reads.Add(1)
				if want := pageOf(f, n-1); !bytes.Equal(got, want) && mismatches.Add(1) == 1 {
					t.Errorf("file %d page %d: read %d bytes starting %x, want %d starting %x",
						f, n-1, len(got), got[:min(8, len(got))], len(want), want[:8])
				}
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	rwg.Wait()
	if mismatches.Load() > 0 {
		t.Fatalf("%d of %d reads returned other bytes", mismatches.Load(), reads.Load())
	}
	for f, id := range ids {
		for p := range perFile {
			if got, err := d.ReadPage(id, p, nil); err != nil || !bytes.Equal(got, pageOf(f, p)) {
				t.Fatalf("file %d page %d after the race: %v", f, p, err)
			}
		}
	}
	t.Logf("%d racing reads", reads.Load())
}
