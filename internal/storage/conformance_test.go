package storage_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dst"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/storage/filedev"
	"repro/internal/wal"
)

// The device conformance suite: one table of implementations, one table of
// cases, every case run over every implementation. The page and log-area
// cases hold for any storage.Device, and the store cases — the paper's cost
// model, which Store charges over whatever device it wraps — hold over
// every one alike; the manifest case holds for any storage.Durable, and the
// suite also pins which implementations are durable — a wrapper is exactly
// when the device beneath it is.

func openDisk(*testing.T) storage.Device { return storage.NewDisk(storage.ScaledHDD(512)) }

func openFiledev(t *testing.T) storage.Device {
	d, err := filedev.Open(t.TempDir(), storage.ScaledHDD(512))
	if err != nil {
		t.Fatalf("filedev.Open: %v", err)
	}
	return d
}

// wrapped puts the simulation's fault-injecting wrapper, with no fault and
// no kill armed, over the device open returns.
func wrapped(open func(*testing.T) storage.Device) func(*testing.T) storage.Device {
	return func(t *testing.T) storage.Device {
		return dst.NewControl(dst.NewTrace(false), dst.NoFaults{}).Wrap(0, open(t))
	}
}

var conformanceDevices = []struct {
	name    string
	open    func(*testing.T) storage.Device
	durable bool
}{
	{"disk", openDisk, false},
	{"filedev", openFiledev, true},
	{"dst-disk", wrapped(openDisk), false},
	{"dst-filedev", wrapped(openFiledev), true},
}

var pageCases = []struct {
	name string
	run  func(*testing.T, storage.Device)
}{
	{"append-read", testAppendRead},
	{"append-reuse", testAppendReuse},
	{"read-into-caller-buffer", testReadIntoCallerBuffer},
	{"list-order", testListOrder},
	{"delete", testDelete},
	{"page-overflow", testPageOverflow},
	{"empty-page-refused", testEmptyPageRefused},
	{"store-classifies-reads", testStoreClassifiesReads},
	{"store-cross-file-interleaving", testStoreCrossFileInterleaving},
	{"store-charges-profile", testStoreChargesProfile},
	{"store-prefetch-never-seeks", testStorePrefetchNeverSeeks},
	{"store-streamed-scan-costs-a-cold-scan", testStoreStreamedScanCostsAColdScan},
	{"store-failure-charges-nothing", testStoreFailureChargesNothing},
	{"store-lane-view-shares-head", testStoreLaneViewSharesHead},
	{"wal-lifecycle", testWALLifecycle},
	{"wal-torn-tail", testWALTornTail},
	{"wal-append-reuse", testWALAppendReuse},
}

var durableCases = []struct {
	name string
	run  func(*testing.T, storage.Durable)
}{
	{"manifest", testManifestRoundTrip},
}

func TestDeviceConformance(t *testing.T) {
	for _, impl := range conformanceDevices {
		t.Run(impl.name, func(t *testing.T) {
			open := func(t *testing.T) storage.Device {
				dev := impl.open(t)
				t.Cleanup(func() {
					if err := dev.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
				})
				return dev
			}
			if _, ok := open(t).(storage.Durable); ok != impl.durable {
				t.Fatalf("is a storage.Durable: %v, want %v", ok, impl.durable)
			}
			for _, c := range pageCases {
				t.Run(c.name, func(t *testing.T) { c.run(t, open(t)) })
			}
			if !impl.durable {
				return
			}
			for _, c := range durableCases {
				t.Run(c.name, func(t *testing.T) { c.run(t, open(t).(storage.Durable)) })
			}
		})
	}
}

// testAppendReuse appends every page from one buffer, overwritten with
// garbage as soon as each call returns — the B+-tree builder assembles all
// of a file's pages in one buffer. Every page must read back as it was
// appended: the three the file device still holds in its append batch (it
// writes through every 16) and the ones before them.
func testAppendReuse(t *testing.T, dev storage.Device) {
	id := dev.Create()
	buf := make([]byte, dev.PageSize())
	const pages = 35
	content := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 1+i*53%dev.PageSize()) }
	for i := range pages {
		p := buf[:copy(buf, content(i))]
		if n, err := dev.AppendPage(id, p); err != nil || n != i {
			t.Fatalf("AppendPage #%d = %d, %v", i, n, err)
		}
		for j := range buf {
			buf[j] = 0xEE
		}
	}
	for i := range pages {
		if got, err := dev.ReadPage(id, i, nil); err != nil || !bytes.Equal(got, content(i)) {
			t.Fatalf("ReadPage(%d) after the buffer was reused: %d bytes starting %x (%v), want %d of %x", i, len(got), got[:1], err, len(content(i)), byte(i+1))
		}
	}
}

// testReadIntoCallerBuffer: a read copies the page into the caller's buffer — a buffer-cache frame of one page — without allocating,
// and never hand out device memory. Pages still in the file device's append
// batch and pages written through, full ones included, are read into one
// reused buffer, garbage in between, and scribbling over a result must not
// change what the next read of that page returns.
func testReadIntoCallerBuffer(t *testing.T, dev storage.Device) {
	id := dev.Create()
	const pages = 20
	content := func(i int) []byte {
		return bytes.Repeat([]byte{byte(i + 1)}, dev.PageSize()-i*29%dev.PageSize())
	}
	for i := range pages {
		if _, err := dev.AppendPage(id, content(i)); err != nil {
			t.Fatal(err)
		}
	}
	frame := make([]byte, 0, dev.PageSize())
	inFrame := func(p []byte) bool {
		return cap(p) > 0 && &p[:cap(p)][cap(p)-1] == &frame[:cap(frame)][cap(frame)-1]
	}
	for i := range pages {
		for j := range frame[:cap(frame)] {
			frame[:cap(frame)][j] = 0xEE
		}
		got, err := dev.ReadPage(id, i, frame)
		if err != nil || !bytes.Equal(got, content(i)) {
			t.Fatalf("ReadPage(%d) = %d bytes (%v), want %d", i, len(got), err, len(content(i)))
		}
		if !inFrame(got) {
			t.Fatalf("ReadPage(%d) did not land in the caller's buffer", i)
		}
		if allocs := testing.AllocsPerRun(5, func() {
			if _, err := dev.ReadPage(id, i, frame); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 && !raceEnabled {
			t.Fatalf("ReadPage(%d) into the caller's buffer allocates %v times", i, allocs)
		}
		for j := range got {
			got[j] = 0xEE
		}
		if again, err := dev.ReadPage(id, i, nil); err != nil || !bytes.Equal(again, content(i)) {
			t.Fatalf("ReadPage(%d) changed after the caller scribbled over its copy", i)
		}
	}
}

// testAppendRead appends more pages than any implementation buffers, of
// varying sizes, and reads each back.
func testAppendRead(t *testing.T, dev storage.Device) {
	id := dev.Create()
	var pages [][]byte
	var written int64
	for i := range 40 {
		p := bytes.Repeat([]byte{byte(i + 1)}, 1+i*37%dev.PageSize())
		n, err := dev.AppendPage(id, p)
		if err != nil || n != i {
			t.Fatalf("AppendPage #%d = %d, %v", i, n, err)
		}
		pages = append(pages, p)
		written += int64(len(p))
	}
	if np, err := dev.NumPages(id); err != nil || np != len(pages) {
		t.Fatalf("NumPages = %d, %v, want %d", np, err, len(pages))
	}
	if got := dev.BytesWritten(); got != written {
		t.Fatalf("BytesWritten = %d, want %d", got, written)
	}
	for i, want := range pages {
		if got, err := dev.ReadPage(id, i, nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("ReadPage(%d) mismatch: %v", i, err)
		}
	}
	for _, page := range []int{-1, len(pages)} {
		if _, err := dev.ReadPage(id, page, nil); err != storage.ErrNoSuchPage {
			t.Fatalf("ReadPage(%d) error = %v, want ErrNoSuchPage", page, err)
		}
	}
}

// testListOrder: IDs ascend and are never reused; List is ascending and
// tracks creates and deletes.
func testListOrder(t *testing.T, dev storage.Device) {
	if ids := dev.List(); len(ids) != 0 {
		t.Fatalf("List on a fresh device = %v", ids)
	}
	a, b, c := dev.Create(), dev.Create(), dev.Create()
	if !(a < b && b < c) {
		t.Fatalf("Create IDs %d, %d, %d do not ascend", a, b, c)
	}
	if ids := dev.List(); !slices.Equal(ids, []storage.FileID{a, b, c}) {
		t.Fatalf("List = %v, want [%d %d %d]", ids, a, b, c)
	}
	dev.Delete(b)
	if next := dev.Create(); next <= c {
		t.Fatalf("Create after a delete = %d, want > %d", next, c)
	} else if ids := dev.List(); !slices.Equal(ids, []storage.FileID{a, c, next}) {
		t.Fatalf("List = %v, want [%d %d %d]", ids, a, c, next)
	}
}

// testDelete: every access to a deleted file is ErrNoSuchFile, and deleting
// it again is harmless.
func testDelete(t *testing.T, dev storage.Device) {
	id := dev.Create()
	if _, err := dev.AppendPage(id, []byte{1}); err != nil {
		t.Fatal(err)
	}
	dev.Delete(id)
	dev.Delete(id)
	if _, err := dev.ReadPage(id, 0, nil); err != storage.ErrNoSuchFile {
		t.Fatalf("read after delete = %v", err)
	}
	if _, err := dev.AppendPage(id, []byte{1}); err != storage.ErrNoSuchFile {
		t.Fatalf("append after delete = %v", err)
	}
	if _, err := dev.NumPages(id); err != storage.ErrNoSuchFile {
		t.Fatalf("NumPages after delete = %v", err)
	}
	if ids := dev.List(); len(ids) != 0 {
		t.Fatalf("List after delete = %v", ids)
	}
}

func testPageOverflow(t *testing.T, dev storage.Device) {
	id := dev.Create()
	if _, err := dev.AppendPage(id, make([]byte, dev.PageSize()+1)); err == nil {
		t.Fatal("oversized page accepted")
	}
	if n, err := dev.AppendPage(id, make([]byte, dev.PageSize())); err != nil || n != 0 {
		t.Fatalf("full page = %d, %v, want page 0", n, err)
	}
}

// testEmptyPageRefused: a page has at least one byte on every device — on
// the file device a zero length header is where a reopen stops reading — and
// a refused append leaves the file as it was.
func testEmptyPageRefused(t *testing.T, dev storage.Device) {
	id := dev.Create()
	for _, empty := range [][]byte{nil, {}} {
		if _, err := dev.AppendPage(id, empty); err == nil {
			t.Fatalf("empty page %#v accepted", empty)
		}
	}
	if n, err := dev.AppendPage(id, []byte{1}); err != nil || n != 0 {
		t.Fatalf("one-byte page after the refusals = %d, %v, want page 0", n, err)
	}
	if np, err := dev.NumPages(id); err != nil || np != 1 {
		t.Fatalf("NumPages = %d, %v, want 1", np, err)
	}
	if got := dev.BytesWritten(); got != 1 {
		t.Fatalf("BytesWritten = %d, want 1", got)
	}
}

// costed puts a Store over dev that charges a fresh environment, with
// cacheBytes of buffer cache (0: every read reaches the device), and
// creates files files of pages one-byte pages each. The appends are
// charged before the environment is handed back reset.
func costed(t *testing.T, dev storage.Device, cacheBytes int64, files, pages int) (*storage.Store, *metrics.Env, []storage.FileID) {
	t.Helper()
	env := metrics.NewEnv()
	s := storage.NewStore(dev, cacheBytes, env)
	ids := make([]storage.FileID, files)
	for f := range ids {
		ids[f] = s.Create()
		for i := range pages {
			if _, err := s.AppendPage(ids[f], []byte{byte(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	env.Counters.Reset()
	env.Clock.Reset()
	return s, env, ids
}

// readThrough reads page of id through s, with the scan hint when scan,
// and unpins it.
func readThrough(t *testing.T, s *storage.Store, id storage.FileID, page int, scan bool) {
	t.Helper()
	f, err := s.ReadPage(id, page, scan)
	if err != nil {
		t.Fatalf("ReadPage(%d, %d): %v", id, page, err)
	}
	s.Unpin(f)
}

// wantReads fails t unless env counted random random and sequential
// sequential device reads and its clock stands at charged.
func wantReads(t *testing.T, env *metrics.Env, random, sequential int64, charged time.Duration) {
	t.Helper()
	c := env.Counters.Snapshot()
	if c.RandomReads != random || c.SequentialReads != sequential || env.Clock.Now() != charged {
		t.Fatalf("random=%d sequential=%d clock=%v, want %d/%d and %v", c.RandomReads, c.SequentialReads, env.Clock.Now(), random, sequential, charged)
	}
}

// testStoreClassifiesReads: a read is sequential only when it targets the
// page right after the previous one; the first read and a jump are random.
func testStoreClassifiesReads(t *testing.T, dev storage.Device) {
	s, env, ids := costed(t, dev, 0, 1, 10)
	p := dev.Profile()
	for _, page := range []int{0, 1, 2, 3, 4, 9} {
		readThrough(t, s, ids[0], page, false)
	}
	wantReads(t, env, 2, 4, 2*(p.Seek+p.TransferPerPage)+4*p.TransferPerPage)
}

// testStoreCrossFileInterleaving: the device has one head, so alternating
// between two files makes every read random even though each file is read
// in order — what the paper's batched point lookup avoids (Section 3.2).
func testStoreCrossFileInterleaving(t *testing.T, dev storage.Device) {
	s, env, ids := costed(t, dev, 0, 2, 5)
	p := dev.Profile()
	for i := range 5 {
		readThrough(t, s, ids[0], i, false)
		readThrough(t, s, ids[1], i, false)
	}
	wantReads(t, env, 10, 0, 10*(p.Seek+p.TransferPerPage))
}

// testStoreChargesProfile: a random read costs a seek plus a transfer, a
// sequential one a transfer, and a page write — part of a sequential bulk
// load — a transfer. PageBytesRead counts each read page's length.
func testStoreChargesProfile(t *testing.T, dev storage.Device) {
	s, env, _ := costed(t, dev, 0, 0, 0)
	p := dev.Profile()
	id := s.Create()
	for i := range 3 {
		if _, err := s.AppendPage(id, make([]byte, 1+i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := env.Counters.Snapshot().PagesWritten; got != 3 || env.Clock.Now() != 3*p.TransferPerPage {
		t.Fatalf("3 appends: PagesWritten=%d clock=%v, want 3 and %v", got, env.Clock.Now(), 3*p.TransferPerPage)
	}
	env.Clock.Reset()
	readThrough(t, s, id, 0, false)
	wantReads(t, env, 1, 0, p.Seek+p.TransferPerPage)
	readThrough(t, s, id, 1, false)
	wantReads(t, env, 1, 1, p.Seek+2*p.TransferPerPage)
	if got := env.Counters.Snapshot().PageBytesRead; got != 1+2 {
		t.Fatalf("PageBytesRead = %d after reading a 1-byte and a 2-byte page, want 3", got)
	}
}

// testStorePrefetchNeverSeeks: a scan's miss prefetches the read-ahead
// window at transfer cost. A page of the window already cached is skipped,
// and the page behind it still pays no seek; the head ends on the window's
// last page, so reading the next one is sequential.
func testStorePrefetchNeverSeeks(t *testing.T, dev storage.Device) {
	s, env, ids := costed(t, dev, 1<<20, 1, 10)
	p := dev.Profile()
	if p.ReadAheadPages < 11 {
		t.Fatalf("read-ahead window of %d pages, the case needs 11", p.ReadAheadPages)
	}
	readThrough(t, s, ids[0], 3, false)
	readThrough(t, s, ids[0], 0, true)
	// Random: 3 and 0. Prefetched: 1, 2 and 4..9, with 3 skipped.
	wantReads(t, env, 2, 8, 2*(p.Seek+p.TransferPerPage)+8*p.TransferPerPage)
	if _, err := s.AppendPage(ids[0], []byte{11}); err != nil {
		t.Fatal(err)
	}
	env.Clock.Reset()
	readThrough(t, s, ids[0], 10, false)
	wantReads(t, env, 2, 9, p.TransferPerPage)
}

// testStoreStreamedScanCostsAColdScan: a streamed full scan of a file
// advances the clock by exactly what a cached scan with read-ahead does on
// the same cache contents, counts the same random and sequential reads, the
// same page bytes and the same hits and misses (a page inside an open
// window is a hit, as the page the prefetch installed would be), returns the
// same bytes, and leaves the cache holding what it held, nothing pinned. The
// file is longer than one window, so the last window is cut at its end, and
// two of its pages are cached beforehand, one inside each window.
func testStoreStreamedScanCostsAColdScan(t *testing.T, dev storage.Device) {
	const pages = 45
	cachedEnv, streamedEnv := metrics.NewEnv(), metrics.NewEnv()
	cached := storage.NewStore(dev, 1<<20, cachedEnv)
	streamed := storage.NewStore(dev, 1<<20, streamedEnv)
	id := cached.Create()
	for i := range pages {
		if _, err := cached.AppendPage(id, bytes.Repeat([]byte{byte(i)}, 1+i*i%dev.PageSize())); err != nil {
			t.Fatal(err)
		}
	}
	if p := dev.Profile(); p.ReadAheadPages >= pages || p.ReadAheadPages < 8 {
		t.Fatalf("read-ahead window of %d pages, the case needs 8..%d", p.ReadAheadPages, pages-1)
	}
	for _, s := range []*storage.Store{cached, streamed} {
		readThrough(t, s, id, 5, false)
		readThrough(t, s, id, pages-3, false)
	}
	cachedEnv.Counters.Reset()
	cachedEnv.Clock.Reset()
	streamedEnv.Counters.Reset()
	streamedEnv.Clock.Reset()

	var w storage.Window
	for page := range pages {
		readThrough(t, cached, id, page, true)
		f, err := streamed.ReadStreamed(id, page, &w)
		if err != nil {
			t.Fatalf("ReadStreamed(%d): %v", page, err)
		}
		if len(f.Data) != 1+page*page%dev.PageSize() || f.Data[0] != byte(page) {
			t.Fatalf("streamed page %d = %d bytes of %d", page, len(f.Data), f.Data[0])
		}
		streamed.Unpin(f)
	}
	c, s := cachedEnv.Counters.Snapshot(), streamedEnv.Counters.Snapshot()
	if cachedEnv.Clock.Now() != streamedEnv.Clock.Now() || c.RandomReads != s.RandomReads ||
		c.SequentialReads != s.SequentialReads || c.PageBytesRead != s.PageBytesRead ||
		c.CacheHits != s.CacheHits || c.CacheMisses != s.CacheMisses {
		t.Fatalf("streamed scan: clock=%v random=%d sequential=%d bytes=%d hits=%d misses=%d; cached scan: %v %d %d %d %d %d",
			streamedEnv.Clock.Now(), s.RandomReads, s.SequentialReads, s.PageBytesRead, s.CacheHits, s.CacheMisses,
			cachedEnv.Clock.Now(), c.RandomReads, c.SequentialReads, c.PageBytesRead, c.CacheHits, c.CacheMisses)
	}
	if s.RandomReads == 0 || s.SequentialReads == 0 || s.CacheHits == 0 {
		t.Fatalf("random=%d sequential=%d hits=%d: the scan exercised no window", s.RandomReads, s.SequentialReads, s.CacheHits)
	}
	if n := streamed.Cache().Len(); n != 2 {
		t.Fatalf("the streamed scan left %d pages cached, want the 2 cached before it", n)
	}
	if n := cached.Cache().Len(); n != pages {
		t.Fatalf("the cached scan left %d pages cached, want %d", n, pages)
	}
	if n := streamed.Cache().Pinned(); n != 0 {
		t.Fatalf("%d frames pinned after the streamed scan", n)
	}
}

// testStoreFailureChargesNothing: a failed read or append counts no device
// read or page write, charges nothing and leaves the head where it was.
func testStoreFailureChargesNothing(t *testing.T, dev storage.Device) {
	s, env, ids := costed(t, dev, 0, 1, 3)
	p := dev.Profile()
	readThrough(t, s, ids[0], 0, false)
	for _, page := range []int{99, -1} {
		if _, err := s.ReadPage(ids[0], page, false); err != storage.ErrNoSuchPage {
			t.Fatalf("ReadPage(%d) = %v, want ErrNoSuchPage", page, err)
		}
	}
	if _, err := s.ReadPage(ids[0]+1, 1, true); err != storage.ErrNoSuchFile {
		t.Fatalf("ReadPage of a missing file = %v, want ErrNoSuchFile", err)
	}
	for _, page := range [][]byte{nil, make([]byte, dev.PageSize()+1)} {
		if _, err := s.AppendPage(ids[0], page); err == nil {
			t.Fatalf("a %d-byte page was appended", len(page))
		}
	}
	if got := env.Counters.Snapshot().PagesWritten; got != 0 {
		t.Fatalf("failed appends counted %d pages written", got)
	}
	readThrough(t, s, ids[0], 1, false)
	wantReads(t, env, 1, 1, p.Seek+2*p.TransferPerPage)
}

// testStoreLaneViewSharesHead: a WithEnv view charges its own environment
// but moves the same head, so a maintenance-lane read between two
// foreground reads of adjacent pages breaks the foreground's sequential run.
func testStoreLaneViewSharesHead(t *testing.T, dev storage.Device) {
	s, env, ids := costed(t, dev, 0, 2, 3)
	p := dev.Profile()
	lane := metrics.NewEnv()
	readThrough(t, s, ids[0], 0, false)
	readThrough(t, s, ids[0], 1, false)
	readThrough(t, s.WithEnv(lane), ids[1], 0, false)
	readThrough(t, s, ids[0], 2, false)
	wantReads(t, env, 2, 1, 2*(p.Seek+p.TransferPerPage)+p.TransferPerPage)
	wantReads(t, lane, 1, 0, p.Seek+p.TransferPerPage)
}

func testManifestRoundTrip(t *testing.T, dev storage.Durable) {
	if m, err := dev.LoadManifest(); err != nil || m != nil {
		t.Fatalf("LoadManifest on a fresh device = %q, %v", m, err)
	}
	for _, v := range []string{"v1", "version two"} {
		if err := dev.SaveManifest([]byte(v)); err != nil {
			t.Fatal(err)
		}
		if m, err := dev.LoadManifest(); err != nil || string(m) != v {
			t.Fatalf("LoadManifest = %q, %v, want %q", m, err, v)
		}
	}
}

// walImage renders LoadWAL's answer as "seq:bytes" pairs.
func walImage(t *testing.T, dev storage.Device) string {
	t.Helper()
	segs, err := dev.LoadWAL()
	if err != nil {
		t.Fatal(err)
	}
	var parts []string
	for _, s := range segs {
		parts = append(parts, fmt.Sprintf("%d:%s", s.Seq, s.Data))
	}
	return strings.Join(parts, " ")
}

// testWALLifecycle walks a session's log: it starts with the first
// RotateWAL, appends land in the live segment before any sync, a rotation
// never lands on a segment that exists, and DropWAL removes a sealed one.
func testWALLifecycle(t *testing.T, dev storage.Device) {
	if got := walImage(t, dev); got != "" {
		t.Fatalf("LoadWAL on a fresh device = %q", got)
	}
	if err := dev.AppendWAL([]byte("early")); err == nil {
		t.Fatal("append before the session's first RotateWAL was accepted")
	}
	steps := []struct {
		do   func() error
		want string
	}{
		{func() error { return dev.RotateWAL(1) }, "1:"},
		{func() error { return dev.AppendWAL([]byte("rec1")) }, "1:rec1"},
		{dev.SyncWAL, "1:rec1"},
		{func() error { return dev.AppendWAL([]byte("rec2")) }, "1:rec1rec2"},
		{dev.SyncWAL, "1:rec1rec2"},
		{dev.SyncWAL, "1:rec1rec2"}, // nothing dirty: still fine
		{func() error { return dev.RotateWAL(2) }, "1:rec1rec2 2:"},
		{func() error { return dev.AppendWAL([]byte("rec3")) }, "1:rec1rec2 2:rec3"},
		{func() error { return dev.RotateWAL(3) }, "1:rec1rec2 2:rec3 3:"},
		{func() error { dev.DropWAL(1); return nil }, "2:rec3 3:"},
		{func() error { dev.DropWAL(1); return nil }, "2:rec3 3:"}, // cannot fail
	}
	for i, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got := walImage(t, dev); got != s.want {
			t.Fatalf("step %d: LoadWAL = %q, want %q", i, got, s.want)
		}
	}
	if err := dev.RotateWAL(2); err == nil {
		t.Fatal("rotation onto an existing segment was accepted")
	}
}

// testWALTornTail: the device holds bytes, not records. A record cut short
// by a crash comes back from LoadWAL as it was written, and the log's
// decoder — not the device — ends the segment there.
func testWALTornTail(t *testing.T, dev storage.Device) {
	whole := wal.AppendRecord(nil, wal.Record{LSN: 1, Type: wal.RecUpsert, TS: 1, Key: []byte("kept"), Value: []byte("v")})
	torn := wal.AppendRecord(nil, wal.Record{LSN: 2, Type: wal.RecUpsert, TS: 2, Key: []byte("lost"), Value: []byte("v")})
	torn = torn[:len(torn)-3]
	if err := dev.RotateWAL(1); err != nil {
		t.Fatal(err)
	}
	if err := dev.AppendWAL(whole); err != nil {
		t.Fatal(err)
	}
	if err := dev.AppendWAL(torn); err != nil {
		t.Fatal(err)
	}
	segs, err := dev.LoadWAL()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Seq != 1 || !bytes.Equal(segs[0].Data, append(slices.Clone(whole), torn...)) {
		t.Fatalf("LoadWAL = %v, want segment 1 with the torn tail intact", segs)
	}
	var keys []string
	if err := wal.Open(nil, dev, nil).Replay(func(r wal.Record) error {
		keys = append(keys, string(r.Key))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(keys, []string{"kept"}) {
		t.Fatalf("replayed %q, want only the whole record", keys)
	}
}

// testWALAppendReuse appends every record from one buffer, overwritten with
// garbage as soon as each call returns — the log encodes every record into
// a recycled buffer. LoadWAL must return the bytes as they were appended.
func testWALAppendReuse(t *testing.T, dev storage.Device) {
	if err := dev.RotateWAL(1); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	var want []byte
	for i := range 5 {
		rec := buf[:copy(buf, fmt.Sprintf("record-%d;", i))]
		want = append(want, rec...)
		if err := dev.AppendWAL(rec); err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = 0xEE
		}
	}
	if got := walImage(t, dev); got != "1:"+string(want) {
		t.Fatalf("LoadWAL = %q, want %q", got, "1:"+string(want))
	}
}
