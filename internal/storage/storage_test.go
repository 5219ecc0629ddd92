package storage

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/metrics"
)

// The must-helpers keep accounting-focused tests honest: a dropped device
// error would let a failing append or read pass as a counter mismatch (or
// worse, not at all).

func mustAppendPage(t *testing.T, s *Store, f FileID, data []byte) {
	t.Helper()
	if _, err := s.AppendPage(f, data); err != nil {
		t.Fatal(err)
	}
}

// mustReadPage reads a page through s and unpins its frame.
func mustReadPage(t *testing.T, s *Store, f FileID, page int, seq bool) {
	t.Helper()
	fr, err := s.ReadPage(f, page, seq)
	if err != nil {
		t.Fatal(err)
	}
	s.Unpin(fr)
}

// What every Device must do — append/read, delete, page overflow, listing —
// and the cost model Store charges over it are TestDeviceConformance's
// (conformance_test.go), which runs them over Disk and every other
// implementation. The tests here are the profiles, the HDD charges over
// Disk and Store's cache.

// newHDDStore returns an uncached Store over a Disk with the HDD profile, so
// every read reaches the device and is charged.
func newHDDStore() (*Store, *metrics.Env) {
	env := metrics.NewEnv()
	return NewStore(NewDisk(HDD()), 0, env), env
}

func TestClockChargesSeekAndTransfer(t *testing.T) {
	s, env := newHDDStore()
	f := s.Create()
	mustAppendPage(t, s, f, []byte{1})
	mustAppendPage(t, s, f, []byte{2})
	before := env.Clock.Now()
	mustReadPage(t, s, f, 0, false) // random: seek + transfer
	afterRandom := env.Clock.Now()
	mustReadPage(t, s, f, 1, false) // adjacent: transfer only
	afterSeq := env.Clock.Now()

	p := s.Device().Profile()
	if afterRandom-before != p.Seek+p.TransferPerPage {
		t.Errorf("random read charged %v, want %v", afterRandom-before, p.Seek+p.TransferPerPage)
	}
	if afterSeq-afterRandom != p.TransferPerPage {
		t.Errorf("sequential read charged %v, want %v", afterSeq-afterRandom, p.TransferPerPage)
	}
}

func TestWritesChargedSequentially(t *testing.T) {
	s, env := newHDDStore()
	f := s.Create()
	before := env.Clock.Now()
	mustAppendPage(t, s, f, make([]byte, 100))
	if got := env.Clock.Now() - before; got != s.Device().Profile().TransferPerPage {
		t.Errorf("write charged %v, want transfer %v", got, s.Device().Profile().TransferPerPage)
	}
	if got := env.Counters.Snapshot().PagesWritten; got != 1 {
		t.Errorf("PagesWritten = %d, want 1", got)
	}
	if d := s.Device().(*Disk); d.BytesWritten() != 100 {
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
		mustAppendPage(t, store, f, []byte{byte(i)})
	}
	// Scan access with read-ahead: first miss prefetches the window.
	env.Counters.Reset()
	mustReadPage(t, store, f, 0, true)
	s := env.Counters.Snapshot()
	if s.RandomReads+s.SequentialReads != 4 {
		t.Fatalf("read-ahead fetched %d pages, want 4", s.RandomReads+s.SequentialReads)
	}
	// The next 3 pages are cache hits.
	env.Counters.Reset()
	for i := 1; i < 4; i++ {
		mustReadPage(t, store, f, i, true)
	}
	s = env.Counters.Snapshot()
	if s.CacheHits != 3 || s.RandomReads+s.SequentialReads != 0 {
		t.Fatalf("hits=%d diskReads=%d, want 3/0", s.CacheHits, s.RandomReads+s.SequentialReads)
	}
	// Point reads (no hint) do not prefetch.
	env.Counters.Reset()
	mustReadPage(t, store, f, 10, false)
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
	mustAppendPage(t, store, f, []byte{1})
	mustReadPage(t, store, f, 0, false) // cached
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
	mustAppendPage(t, store, f, []byte{1})
	mustReadPage(t, store, f, 0, false)
	before := env.Clock.Now()
	mustReadPage(t, store, f, 0, false) // hit
	hitCost := env.Clock.Now() - before
	if hitCost <= 0 || hitCost >= time.Millisecond {
		t.Errorf("cache hit cost = %v, want small positive", hitCost)
	}
}

// TestStoreRecyclesFrames: once the cache is full, a miss reads into the
// frame the previous eviction freed — no allocation at all. A page that
// fills half a frame or less is cached in a frame of the smallest size class
// that holds it, and once evicted that frame serves the class's next miss
// as a whole one serves the next whole page. An eviction of a page a reader
// still pins is counted, and the page keeps its bytes until the unpin.
func TestStoreRecyclesFrames(t *testing.T) {
	env := metrics.NewEnv()
	const pageSize, frames = 512, 4
	store := NewStore(NewDisk(ScaledHDD(pageSize)), frames*pageSize, env)
	f := store.Create()
	const pages = 64
	for i := range pages {
		mustAppendPage(t, store, f, bytes.Repeat([]byte{byte(i)}, pageSize-i%8))
	}
	small := store.Create()
	mustAppendPage(t, store, small, []byte("tiny"))

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
	if string(fr.Data) != "tiny" || cap(fr.Data) != pageSize>>6 {
		t.Fatalf("small page: %q in a %d-byte buffer, want the %d-byte class", fr.Data, cap(fr.Data), pageSize>>6)
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
	again, err := store.ReadPage(small, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if again != fr || string(again.Data) != "tiny" {
		t.Fatalf("the small page's second miss read %q into another frame, want its freed class frame", again.Data)
	}
	store.Unpin(again)
	if s := env.Counters.Snapshot(); s.FrameAllocs != frames+2 || s.CacheMisses != int64(i)+2 || s.FrameReuses != s.CacheMisses-(frames+1) {
		t.Fatalf("frame allocs/reuses = %d/%d over %d misses, want %d/%d: only the small page's first miss allocates, its class frame", s.FrameAllocs, s.FrameReuses, s.CacheMisses, frames+2, s.CacheMisses-(frames+1))
	}
	if n := store.Cache().Pinned(); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}
}
