package filedev

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage"
)

// What every storage.Device and storage.Durable must do within a session —
// append/read, delete, listing, page overflow, the manifest round trip, the
// log segment lifecycle — is storage's TestDeviceConformance, which runs it
// over this device raw and wrapped. The tests here are what only real files
// have: the on-disk page layout, reopen, a torn or lost tail, the
// directory's contents.

// mustClose fails the test on a Close error: Close runs the final sync,
// so a dropped error here can hide a failed durability point.
func mustClose(t *testing.T, d *Device) {
	t.Helper()
	if err := d.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func openTestDev(t *testing.T, dir string) *Device {
	t.Helper()
	d, err := Open(dir, storage.ScaledHDD(512))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return d
}

func TestAppendReadReopen(t *testing.T) {
	dir := t.TempDir()
	d := openTestDev(t, dir)
	id := d.Create()
	var pages [][]byte
	// More pages than one append batch, with varying sizes, so both the
	// write-through and the buffered-tail read paths are exercised.
	for i := 0; i < appendBatchPages*2+3; i++ {
		p := bytes.Repeat([]byte{byte(i + 1)}, 1+i*7%500)
		pages = append(pages, p)
		n, err := d.AppendPage(id, p)
		if err != nil || n != i {
			t.Fatalf("AppendPage(%d) = %d, %v", i, n, err)
		}
	}
	for i, want := range pages {
		got, err := d.ReadPage(id, i, nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("ReadPage(%d) mismatch: %v", i, err)
		}
	}
	if np, err := d.NumPages(id); err != nil || np != len(pages) {
		t.Fatalf("NumPages = %d, %v, want %d", np, err, len(pages))
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: every page must read back identically.
	d2 := openTestDev(t, dir)
	defer mustClose(t, d2)
	if np, err := d2.NumPages(id); err != nil || np != len(pages) {
		t.Fatalf("reopened NumPages = %d, %v", np, err)
	}
	for i, want := range pages {
		got, err := d2.ReadPage(id, i, nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("reopened ReadPage(%d) mismatch: %v", i, err)
		}
	}
	// New files must not reuse the old ID space.
	if next := d2.Create(); next <= id {
		t.Fatalf("Create after reopen = %d, want > %d", next, id)
	}
}

func TestUnsyncedTailDroppedAtReopen(t *testing.T) {
	dir := t.TempDir()
	d := openTestDev(t, dir)
	id := d.Create()
	if _, err := d.AppendPage(id, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	// The durability point of an install: everything appended so far is
	// fsynced before the manifest is replaced.
	if err := d.SaveManifest(nil); err != nil {
		t.Fatal(err)
	}
	// Buffered appends that were never synced may or may not survive a real
	// crash; simulate the lost-tail case by abandoning the device without
	// Close (the batch buffer dies with the process).
	if _, err := d.AppendPage(id, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	//lsm:allow-discard simulated crash: the device is abandoned mid-flight, close errors are part of the scenario
	_ = d.closeAllLocked()
	d.closed = true
	d.mu.Unlock()

	d2 := openTestDev(t, dir)
	defer mustClose(t, d2)
	np, err := d2.NumPages(id)
	if err != nil || np != 1 {
		t.Fatalf("NumPages after crash = %d, %v, want 1", np, err)
	}
	got, err := d2.ReadPage(id, 0, nil)
	if err != nil || string(got) != "durable" {
		t.Fatalf("page 0 after crash = %q, %v", got, err)
	}
}

// layoutPages returns pages of mixed sizes, from a 19-byte page (the size of
// a B+-tree's meta page) up to a full one, over more than one append batch.
func layoutPages(pageSize int) [][]byte {
	sizes := []int{19, pageSize, 1, pageSize / 2, 300}
	var pages [][]byte
	for i := range appendBatchPages*2 + 3 {
		pages = append(pages, bytes.Repeat([]byte{byte(i + 1)}, sizes[i%len(sizes)]))
	}
	return pages
}

// writeLayoutFile writes pages into a new component file under dir and
// closes the device. It returns the file's ID and path.
func writeLayoutFile(t *testing.T, dir string, pages [][]byte) (storage.FileID, string) {
	t.Helper()
	d := openTestDev(t, dir)
	id := d.Create()
	for i, p := range pages {
		if n, err := d.AppendPage(id, p); err != nil || n != i {
			t.Fatalf("AppendPage(%d) = %d, %v", i, n, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return id, filepath.Join(dir, ComponentFileName(id))
}

// headerOffsets returns where each page's length header starts on disk.
func headerOffsets(pages [][]byte) []int64 {
	offs := make([]int64, len(pages))
	var end int64
	for i, p := range pages {
		offs[i] = end
		end += pageHeader + int64(len(p))
	}
	return offs
}

// overwriteHeader rewrites the length header at off in the file at path.
func overwriteHeader(t *testing.T, path string, off int64, n uint32) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(binary.BigEndian.AppendUint32(nil, n), off); err != nil {
		t.Fatal(errors.Join(err, f.Close()))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// requirePages checks that the device holds exactly want in file id.
func requirePages(t *testing.T, d *Device, id storage.FileID, want [][]byte) {
	t.Helper()
	if np, err := d.NumPages(id); err != nil || np != len(want) {
		t.Fatalf("NumPages = %d, %v, want %d", np, err, len(want))
	}
	for i, p := range want {
		if got, err := d.ReadPage(id, i, nil); err != nil || !bytes.Equal(got, p) {
			t.Fatalf("page %d: %d bytes (%v), want %d", i, len(got), err, len(p))
		}
	}
	if _, err := d.ReadPage(id, len(want), nil); err != storage.ErrNoSuchPage {
		t.Fatalf("page %d past the end: %v, want ErrNoSuchPage", len(want), err)
	}
}

// TestFileHoldsPagesBackToBack: a component file is its pages, each behind a
// 4-byte big-endian length, with no padding — a page costs 4 + len bytes.
func TestFileHoldsPagesBackToBack(t *testing.T) {
	dir := t.TempDir()
	pages := layoutPages(512)
	_, path := writeLayoutFile(t, dir, pages)
	var want []byte
	for _, p := range pages {
		want = binary.BigEndian.AppendUint32(want, uint32(len(p)))
		want = append(want, p...)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("file size = %d, want Σ(4 + len) = %d", len(got), len(want))
	}
	if !bytes.Equal(got, want) {
		t.Fatal("file bytes are not the pages back to back behind their lengths")
	}
}

// TestReopenStopsAtTornTail: a reopen walks the length headers and ends at
// the first one that is cut short, runs past the end of the file, is larger
// than a page, or is zero. Every page in front of it reads back byte for
// byte, and a page appended afterwards lands where the tail was.
func TestReopenStopsAtTornTail(t *testing.T) {
	const pageSize = 512
	pages := layoutPages(pageSize)
	offs := headerOffsets(pages)
	const k = appendBatchPages + 5 // a full page, in the second batch
	if len(pages[k]) != pageSize {
		t.Fatalf("page %d has %d bytes; the cases want a full one", k, len(pages[k]))
	}
	setHeader := func(n uint32) func(*testing.T, string) {
		return func(t *testing.T, path string) { overwriteHeader(t, path, offs[k], n) }
	}
	truncate := func(size int64) func(*testing.T, string) {
		return func(t *testing.T, path string) {
			if err := os.Truncate(path, size); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, tear := range map[string]func(*testing.T, string){
		"cut mid-page":              truncate(offs[k] + pageHeader + pageSize/2),
		"cut mid-header":            truncate(offs[k] + 2),
		"header larger than a page": setHeader(pageSize + 1),
		"zero header":               setHeader(0),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			id, path := writeLayoutFile(t, dir, pages)
			tear(t, path)
			d := openTestDev(t, dir)
			requirePages(t, d, id, pages[:k])
			next := []byte("after the tail")
			if n, err := d.AppendPage(id, next); err != nil || n != k {
				t.Fatalf("append after the tail = %d, %v, want page %d", n, err, k)
			}
			mustClose(t, d)
			d2 := openTestDev(t, dir)
			defer mustClose(t, d2)
			requirePages(t, d2, id, append(pages[:k:k], next))
		})
	}
}

// TestPageReadCapacityIsLength: a read returns the page and nothing more,
// whether it comes from the append batch or from the file, so the buffer
// cache holds exactly the page.
func TestPageReadCapacityIsLength(t *testing.T) {
	d := openTestDev(t, t.TempDir())
	defer mustClose(t, d)
	id := d.Create()
	pages := layoutPages(512)
	for _, p := range pages {
		if _, err := d.AppendPage(id, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := range pages {
		got, err := d.ReadPage(id, i, nil)
		if err != nil || len(got) != len(pages[i]) || cap(got) != len(got) {
			t.Fatalf("page %d: len %d cap %d (%v), want len = cap = %d", i, len(got), cap(got), err, len(pages[i]))
		}
	}
}

// TestPageHeaderMismatchIsError: a header that no longer says the length the
// page table recorded makes the read an error, never other bytes, and
// leaves the other pages readable.
func TestPageHeaderMismatchIsError(t *testing.T) {
	dir := t.TempDir()
	pages := layoutPages(512)
	offs := headerOffsets(pages)
	id, path := writeLayoutFile(t, dir, pages)
	d := openTestDev(t, dir)
	defer mustClose(t, d)
	const k = 3
	overwriteHeader(t, path, offs[k], uint32(len(pages[k])-1))
	// A frame of exactly the page's size reads the header on its own.
	for _, dst := range [][]byte{nil, make([]byte, 0, len(pages[k]))} {
		if got, err := d.ReadPage(id, k, dst); err == nil || got != nil {
			t.Fatalf("page %d under a changed header = %d bytes, %v; want an error and no bytes", k, len(got), err)
		}
	}
	for _, i := range []int{k - 1, k + 1} {
		if got, err := d.ReadPage(id, i, nil); err != nil || !bytes.Equal(got, pages[i]) {
			t.Fatalf("page %d next to the bad header: %v", i, err)
		}
	}
}

// TestDeleteAndList: a deleted component leaves the directory, and a
// reopened device lists what is left.
func TestDeleteAndList(t *testing.T) {
	dir := t.TempDir()
	d := openTestDev(t, dir)
	a, b := d.Create(), d.Create()
	if _, err := d.AppendPage(a, []byte{1}); err != nil {
		t.Fatal(err)
	}
	d.Delete(a)
	if _, err := os.Stat(filepath.Join(dir, ComponentFileName(a))); !os.IsNotExist(err) {
		t.Fatalf("deleted component file still on disk: %v", err)
	}
	mustClose(t, d)
	d2 := openTestDev(t, dir)
	defer mustClose(t, d2)
	if ids := d2.List(); len(ids) != 1 || ids[0] != b {
		t.Fatalf("reopened List = %v, want [%d]", ids, b)
	}
}

func TestManifestAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	d := openTestDev(t, dir)
	if m, err := d.LoadManifest(); err != nil || m != nil {
		t.Fatalf("LoadManifest on fresh dir = %q, %v", m, err)
	}
	if err := d.SaveManifest([]byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveManifest([]byte("v2")); err != nil {
		t.Fatal(err)
	}
	if m, err := d.LoadManifest(); err != nil || string(m) != "v2" {
		t.Fatalf("LoadManifest = %q, %v, want v2", m, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openTestDev(t, dir)
	defer mustClose(t, d2)
	if m, err := d2.LoadManifest(); err != nil || string(m) != "v2" {
		t.Fatalf("reopened LoadManifest = %q, %v, want v2", m, err)
	}
}

// walImage renders LoadWAL's answer as "seq:bytes" pairs.
func walImage(t *testing.T, d *Device) string {
	t.Helper()
	segs, err := d.LoadWAL()
	if err != nil {
		t.Fatal(err)
	}
	var parts []string
	for _, s := range segs {
		parts = append(parts, fmt.Sprintf("%d:%s", s.Seq, s.Data))
	}
	return strings.Join(parts, " ")
}

// TestWALAppendLoad walks the segment lifecycle: a session's log starts
// with its first RotateWAL, appends land in the live segment, a reopened
// device never appends to a segment it found, and DropWAL unlinks a sealed
// one.
func TestWALAppendLoad(t *testing.T) {
	dir := t.TempDir()
	d := openTestDev(t, dir)
	if got := walImage(t, d); got != "" {
		t.Fatalf("LoadWAL on fresh dir = %q", got)
	}
	if err := d.AppendWAL([]byte("early")); err == nil {
		t.Fatal("append before the session's first RotateWAL was accepted")
	}
	if err := d.RotateWAL(1); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendWAL([]byte("rec1")); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendWAL([]byte("rec2")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openTestDev(t, dir)
	defer mustClose(t, d2)
	if got := walImage(t, d2); got != "1:rec1rec2" {
		t.Fatalf("LoadWAL = %q", got)
	}
	if err := d2.RotateWAL(1); err == nil {
		t.Fatal("rotation onto a recovered segment was accepted")
	}
	if err := d2.RotateWAL(2); err != nil {
		t.Fatal(err)
	}
	if err := d2.AppendWAL([]byte("rec3")); err != nil {
		t.Fatal(err)
	}
	if got := walImage(t, d2); got != "1:rec1rec2 2:rec3" {
		t.Fatalf("LoadWAL after reopen-append = %q", got)
	}
	if err := d2.RotateWAL(3); err != nil {
		t.Fatal(err)
	}
	d2.DropWAL(1)
	if got := walImage(t, d2); got != "2:rec3 3:" {
		t.Fatalf("LoadWAL after rotate+drop = %q", got)
	}
}

// TestFileNamesMatchPrintf: component and log segment names, and the paths
// the device opens, are byte for byte what fmt's %08d and filepath.Join
// give, IDs wider than eight digits and unclean directories included.
func TestFileNamesMatchPrintf(t *testing.T) {
	ids := []uint64{0, 1, 7, 42, 9999999, 12345678, 99999999, 100000000, 123456789012, 1<<64 - 1}
	dirs := []string{"", "/", "data", "data/", "./data/shard-0000", "/a//b/../c", strings.Repeat("long-directory/", 20)}
	for _, id := range ids {
		if got, want := ComponentFileName(storage.FileID(id)), fmt.Sprintf("c%08d.lsm", id); got != want {
			t.Errorf("ComponentFileName(%d) = %q, want %q", id, got, want)
		}
		if got, want := WALSegmentName(id), fmt.Sprintf("wal-%08d.log", id); got != want {
			t.Errorf("WALSegmentName(%d) = %q, want %q", id, got, want)
		}
		for _, dir := range dirs {
			d := &Device{dir: dir, base: deviceBase(dir)}
			if got, want := d.compPath(storage.FileID(id)), filepath.Join(dir, fmt.Sprintf("c%08d.lsm", id)); got != want {
				t.Errorf("compPath(%q, %d) = %q, want %q", dir, id, got, want)
			}
			if got, want := d.walPath(id), filepath.Join(dir, fmt.Sprintf("wal-%08d.log", id)); got != want {
				t.Errorf("walPath(%q, %d) = %q, want %q", dir, id, got, want)
			}
		}
	}
	d := &Device{dir: "data", base: deviceBase("data")}
	if n := testing.AllocsPerRun(100, func() { pathSink = d.compPath(12345) }); n != 1 && !raceEnabled {
		t.Errorf("compPath allocated %v objects, want 1", n)
	}
}

var pathSink string
