package storage

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/metrics"
)

// envDisk binds a Disk to the environment its accesses charge, giving it
// Store's call shape.
type envDisk struct {
	*Disk
	env *metrics.Env
}

func (d envDisk) AppendPage(id FileID, data []byte) (int, error) {
	return d.AppendPageEnv(d.env, id, data)
}

func (d envDisk) ReadPage(id FileID, page int, _ bool) ([]byte, error) {
	return d.ReadPageEnv(d.env, id, page, nil)
}

// storeDev gives Store the same call shape: a read copies the page out of
// its pinned frame and unpins it.
type storeDev struct{ *Store }

func (s storeDev) ReadPage(id FileID, page int, seq bool) ([]byte, error) {
	f, err := s.Store.ReadPage(id, page, seq)
	if err != nil {
		return nil, err
	}
	defer s.Unpin(f)
	return append([]byte(nil), f.Data...), nil
}

func newHDDDisk() (envDisk, *metrics.Env) {
	env := metrics.NewEnv()
	return envDisk{NewDisk(HDD()), env}, env
}

// pageDev is the device surface the must-helpers drive; both envDisk and
// storeDev satisfy it. The helpers keep accounting-focused tests honest: a
// dropped device error would let a failing append or read pass as a
// counter mismatch (or worse, not at all).
type pageDev interface {
	AppendPage(FileID, []byte) (int, error)
	ReadPage(FileID, int, bool) ([]byte, error)
}

func mustAppendPage(t *testing.T, d pageDev, f FileID, data []byte) {
	t.Helper()
	if _, err := d.AppendPage(f, data); err != nil {
		t.Fatal(err)
	}
}

func mustReadPage(t *testing.T, d pageDev, f FileID, page int, seq bool) []byte {
	t.Helper()
	data, err := d.ReadPage(f, page, seq)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// What every Device must do — append/read, delete, page overflow, listing —
// is TestDeviceConformance's (conformance_test.go), which runs it over Disk
// and every other implementation. The tests here are Disk's cost model and
// Store's cache.

func TestSequentialVsRandomAccounting(t *testing.T) {
	d, env := newHDDDisk()
	f := d.Create()
	for i := 0; i < 10; i++ {
		mustAppendPage(t, d, f, []byte{byte(i)})
	}
	env.Counters.Reset()
	// First read: random (head parked elsewhere).
	mustReadPage(t, d, f, 0, true)
	// Next reads in order: sequential.
	for i := 1; i < 5; i++ {
		mustReadPage(t, d, f, i, true)
	}
	// Jump: random again.
	mustReadPage(t, d, f, 9, true)
	s := env.Counters.Snapshot()
	if s.RandomReads != 2 || s.SequentialReads != 4 {
		t.Fatalf("random=%d sequential=%d, want 2/4", s.RandomReads, s.SequentialReads)
	}
}

func TestCrossFileInterleavingBreaksSequentiality(t *testing.T) {
	// The single-head model: alternating between two files makes every
	// access random even if each file is read in order. This is the
	// mechanism that makes batched point lookups win (Section 3.2).
	d, env := newHDDDisk()
	f1, f2 := d.Create(), d.Create()
	for i := 0; i < 5; i++ {
		mustAppendPage(t, d, f1, []byte{1})
		mustAppendPage(t, d, f2, []byte{2})
	}
	env.Counters.Reset()
	for i := 0; i < 5; i++ {
		mustReadPage(t, d, f1, i, true)
		mustReadPage(t, d, f2, i, true)
	}
	s := env.Counters.Snapshot()
	if s.SequentialReads != 0 || s.RandomReads != 10 {
		t.Fatalf("random=%d sequential=%d, want 10/0", s.RandomReads, s.SequentialReads)
	}
}

func TestClockChargesSeekAndTransfer(t *testing.T) {
	d, env := newHDDDisk()
	f := d.Create()
	mustAppendPage(t, d, f, []byte{1})
	mustAppendPage(t, d, f, []byte{2})
	before := env.Clock.Now()
	mustReadPage(t, d, f, 0, false) // random: seek + transfer
	afterRandom := env.Clock.Now()
	mustReadPage(t, d, f, 1, false) // adjacent: transfer only
	afterSeq := env.Clock.Now()

	p := d.Profile()
	if afterRandom-before != p.Seek+p.TransferPerPage {
		t.Errorf("random read charged %v, want %v", afterRandom-before, p.Seek+p.TransferPerPage)
	}
	if afterSeq-afterRandom != p.TransferPerPage {
		t.Errorf("sequential read charged %v, want %v", afterSeq-afterRandom, p.TransferPerPage)
	}
}

func TestWritesChargedSequentially(t *testing.T) {
	d, env := newHDDDisk()
	f := d.Create()
	before := env.Clock.Now()
	mustAppendPage(t, d, f, make([]byte, 100))
	if got := env.Clock.Now() - before; got != d.Profile().TransferPerPage {
		t.Errorf("write charged %v, want transfer %v", got, d.Profile().TransferPerPage)
	}
	if d.BytesWritten() != 100 {
		t.Errorf("BytesWritten = %d", d.BytesWritten())
	}
}

func TestProfiles(t *testing.T) {
	h, s := HDD(), SSD()
	if h.PageSize != 128<<10 || s.PageSize != 32<<10 {
		t.Error("profile page sizes diverge from the paper's setup")
	}
	if h.Seek <= s.Seek {
		t.Error("HDD seek must dwarf SSD access latency")
	}
	sc := ScaledHDD(4096)
	if sc.PageSize != 4096 || sc.TransferPerPage <= 0 || sc.TransferPerPage >= h.TransferPerPage {
		t.Errorf("ScaledHDD transfer = %v", sc.TransferPerPage)
	}
}

func TestStoreCachingAndReadAhead(t *testing.T) {
	env := metrics.NewEnv()
	prof := ScaledHDD(512)
	prof.ReadAheadPages = 4
	d := NewDisk(prof)
	store := NewStore(d, 1<<20, env)
	f := store.Create()
	for i := 0; i < 16; i++ {
		mustAppendPage(t, storeDev{store}, f, []byte{byte(i)})
	}
	// Scan access with read-ahead: first miss prefetches the window.
	env.Counters.Reset()
	mustReadPage(t, storeDev{store}, f, 0, true)
	s := env.Counters.Snapshot()
	if s.RandomReads+s.SequentialReads != 4 {
		t.Fatalf("read-ahead fetched %d pages, want 4", s.RandomReads+s.SequentialReads)
	}
	// The next 3 pages are cache hits.
	env.Counters.Reset()
	for i := 1; i < 4; i++ {
		mustReadPage(t, storeDev{store}, f, i, true)
	}
	s = env.Counters.Snapshot()
	if s.CacheHits != 3 || s.RandomReads+s.SequentialReads != 0 {
		t.Fatalf("hits=%d diskReads=%d, want 3/0", s.CacheHits, s.RandomReads+s.SequentialReads)
	}
	// Point reads (no hint) do not prefetch.
	env.Counters.Reset()
	mustReadPage(t, storeDev{store}, f, 10, false)
	s = env.Counters.Snapshot()
	if s.RandomReads != 1 || s.CacheMisses != 1 {
		t.Fatalf("point read: random=%d misses=%d", s.RandomReads, s.CacheMisses)
	}
}

func TestStoreDeleteInvalidatesCache(t *testing.T) {
	env := metrics.NewEnv()
	d := NewDisk(ScaledHDD(512))
	store := NewStore(d, 1<<20, env)
	f := store.Create()
	mustAppendPage(t, storeDev{store}, f, []byte{1})
	mustReadPage(t, storeDev{store}, f, 0, false) // cached
	store.Delete(f)
	if _, err := store.ReadPage(f, 0, false); err == nil {
		t.Fatal("read of deleted file served from cache")
	}
}

func TestCacheHitCostCheaperThanDisk(t *testing.T) {
	env := metrics.NewEnv()
	d := NewDisk(HDD())
	store := NewStore(d, 1<<30, env)
	f := store.Create()
	mustAppendPage(t, storeDev{store}, f, []byte{1})
	mustReadPage(t, storeDev{store}, f, 0, false)
	before := env.Clock.Now()
	mustReadPage(t, storeDev{store}, f, 0, false) // hit
	hitCost := env.Clock.Now() - before
	if hitCost <= 0 || hitCost >= time.Millisecond {
		t.Errorf("cache hit cost = %v, want small positive", hitCost)
	}
}

// TestStoreRecyclesFrames: once the cache is full, a miss reads into the
// frame the previous eviction freed — no allocation at all — while a page
// that would fill less than half a frame gets a buffer of its own size, and
// an eviction of a page a reader still pins is counted.
func TestStoreRecyclesFrames(t *testing.T) {
	env := metrics.NewEnv()
	const pageSize, frames = 512, 4
	store := NewStore(NewDisk(ScaledHDD(pageSize)), frames*pageSize, env)
	f := store.Create()
	const pages = 64
	for i := range pages {
		mustAppendPage(t, storeDev{store}, f, bytes.Repeat([]byte{byte(i)}, pageSize-i%8))
	}
	small := store.Create()
	mustAppendPage(t, storeDev{store}, small, []byte("tiny"))

	i := 0
	read := func() {
		fr, err := store.ReadPage(f, i%pages, false)
		if err != nil || fr.Data[0] != byte(i%pages) {
			t.Fatalf("page %d: %v", i%pages, err)
		}
		store.Unpin(fr)
		i++
	}
	for range frames + 1 {
		read()
	}
	if allocs := testing.AllocsPerRun(200, read); allocs != 0 {
		t.Fatalf("a miss into a full cache allocates %v times, want 0", allocs)
	}
	s := env.Counters.Snapshot()
	if s.FrameAllocs != frames+1 || s.FrameReuses != int64(i)-(frames+1) {
		t.Fatalf("frame allocs/reuses = %d/%d after %d misses, want %d/%d", s.FrameAllocs, s.FrameReuses, i, frames+1, i-(frames+1))
	}

	fr, err := store.ReadPage(small, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if string(fr.Data) != "tiny" || cap(fr.Data) >= pageSize/2 {
		t.Fatalf("small page: %q in a %d-byte buffer, want one of its own size", fr.Data, cap(fr.Data))
	}
	for range frames { // evict the small page while it is pinned
		read()
	}
	if got := env.Counters.Snapshot().PinnedEvictions; got != 1 {
		t.Fatalf("PinnedEvictions = %d, want 1", got)
	}
	if string(fr.Data) != "tiny" {
		t.Fatalf("pinned page changed to %q after its eviction", fr.Data)
	}
	store.Unpin(fr)
	if n := store.Cache().Pinned(); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}
}
