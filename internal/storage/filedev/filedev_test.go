package filedev

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/storage"
)

// What every storage.Device and storage.Durable must do within a session —
// append/read, delete, listing, page overflow, the manifest round trip, the
// log segment lifecycle — is storage's TestDeviceConformance, which runs it
// over this device raw and wrapped. The tests here are what only real files
// have: reopen, a lost unsynced tail, the directory's contents.

// mustClose fails the test on a Close error: Close runs the final sync,
// so a dropped error here can hide a failed durability point.
func mustClose(t *testing.T, d *Device) {
	t.Helper()
	if err := d.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func mustReadPageEnv(t *testing.T, d *Device, env *metrics.Env, id storage.FileID, page int) {
	t.Helper()
	if _, err := d.ReadPageEnv(env, id, page); err != nil {
		t.Fatal(err)
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
	env := metrics.NewEnv()
	d := openTestDev(t, dir)
	id := d.Create()
	var pages [][]byte
	// More pages than one append batch, with varying sizes, so both the
	// write-through and the buffered-tail read paths are exercised.
	for i := 0; i < appendBatchPages*2+3; i++ {
		p := bytes.Repeat([]byte{byte(i + 1)}, 1+i*7%500)
		pages = append(pages, p)
		n, err := d.AppendPageEnv(env, id, p)
		if err != nil || n != i {
			t.Fatalf("AppendPageEnv(%d) = %d, %v", i, n, err)
		}
	}
	for i, want := range pages {
		got, err := d.ReadPageEnv(env, id, i)
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
		got, err := d2.ReadPageEnv(env, id, i)
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
	env := metrics.NewEnv()
	d := openTestDev(t, dir)
	id := d.Create()
	if _, err := d.AppendPageEnv(env, id, []byte("durable")); err != nil {
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
	if _, err := d.AppendPageEnv(env, id, []byte("lost")); err != nil {
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
	got, err := d2.ReadPageEnv(env, id, 0)
	if err != nil || string(got) != "durable" {
		t.Fatalf("page 0 after crash = %q, %v", got, err)
	}
}

// TestDeleteAndList: a deleted component leaves the directory, and a
// reopened device lists what is left.
func TestDeleteAndList(t *testing.T) {
	dir := t.TempDir()
	env := metrics.NewEnv()
	d := openTestDev(t, dir)
	a, b := d.Create(), d.Create()
	if _, err := d.AppendPageEnv(env, a, []byte{1}); err != nil {
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
	if err := d.AppendWAL([]byte("early"), false); err == nil {
		t.Fatal("append before the session's first RotateWAL was accepted")
	}
	if err := d.RotateWAL(1); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendWAL([]byte("rec1"), false); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendWAL([]byte("rec2"), true); err != nil {
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
	if err := d2.AppendWAL([]byte("rec3"), true); err != nil {
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

func TestCountersClassifyLikeSim(t *testing.T) {
	env := metrics.NewEnv()
	d := openTestDev(t, t.TempDir())
	defer mustClose(t, d)
	id := d.Create()
	for i := 0; i < 10; i++ {
		if _, err := d.AppendPageEnv(env, id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	env.Counters.Reset()
	mustReadPageEnv(t, d, env, id, 0)
	for i := 1; i < 5; i++ {
		mustReadPageEnv(t, d, env, id, i)
	}
	mustReadPageEnv(t, d, env, id, 9)
	s := env.Counters.Snapshot()
	if s.RandomReads != 2 || s.SequentialReads != 4 {
		t.Fatalf("random=%d sequential=%d, want 2/4", s.RandomReads, s.SequentialReads)
	}
}
