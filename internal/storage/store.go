package storage

import (
	"sync"

	"repro/internal/cache"
	"repro/internal/metrics"
)

// Store combines a page device with the LRU buffer cache and charges the
// virtual clock for each access. It is the single storage handle shared by
// every index of a dataset (as the buffer cache is shared in AsterixDB),
// and the one place the paper's device model (Section 6.1) is applied, so
// virtual time means the same thing on every Device: a cache hit costs
// CPU, a device read costs a seek plus a transfer when it is random and a
// transfer alone when it is sequential, and a page write — always part of
// a sequential bulk load — costs a transfer.
//
// Foreground reads go through the cache (ReadPage). Maintenance scans — a
// merge reading its inputs, which it deletes once its output installs —
// stream past it (ReadStreamed): they are charged as a cold-cache scan
// with read-ahead but leave the cache holding what it held, so they neither
// evict the foreground's pages nor leave their frames cached.
type Store struct {
	dev   Device
	prof  Profile
	cache *cache.LRU
	env   *metrics.Env
	head  *head
}

// head is the device's one read head. A read is sequential only when it
// targets the page right after the previous device read, on the same file,
// so interleaving reads across files makes every one of them random —
// exactly what the paper's batched point lookup avoids (Section 3.2).
type head struct {
	mu   sync.Mutex
	file FileID
	page int
}

// moveTo puts the head over page of id and reports whether that page
// follows the one under it.
func (h *head) moveTo(id FileID, page int) bool {
	h.mu.Lock()
	sequential := id == h.file && page == h.page+1
	h.file, h.page = id, page
	h.mu.Unlock()
	return sequential
}

// NewStore wraps dev with a buffer cache of cacheBytes capacity, in frames
// of one page.
func NewStore(dev Device, cacheBytes int64, env *metrics.Env) *Store {
	pages := int(cacheBytes / int64(dev.PageSize()))
	return &Store{
		dev:   dev,
		prof:  dev.Profile(),
		cache: cache.NewLRU(pages, dev.PageSize()),
		env:   env,
		head:  &head{page: -2},
	}
}

// WithEnv returns a Store view sharing this store's device, buffer cache
// and read head but charging the given metrics environment. Background
// maintenance uses it to account its I/O on a separate lane (clock) while
// its reads still move the one spindle the foreground reads from.
func (s *Store) WithEnv(env *metrics.Env) *Store {
	v := *s
	v.env = env
	return &v
}

// Device returns the underlying page device.
func (s *Store) Device() Device { return s.dev }

// Cache returns the buffer cache.
func (s *Store) Cache() *cache.LRU { return s.cache }

// Env returns the metrics environment.
func (s *Store) Env() *metrics.Env { return s.env }

// PageSize returns the device page size.
func (s *Store) PageSize() int { return s.dev.PageSize() }

// ReadPage serves a page from the buffer cache, falling through to the
// device on a miss and installing the page afterwards. The returned frame
// is pinned: its Data is the page until the caller passes it to Unpin, and
// the caller must do so exactly once.
//
// When seqHint is set (scans), a miss triggers device read-ahead: the
// following ReadAheadPages-1 pages are prefetched into the cache at
// sequential transfer cost, modelling the paper's 4 MB scan read-ahead.
// Pages of the window that are already cached are skipped without touching
// the device, without promoting them in the LRU order (a prefetch is not a
// use), and without breaking the streaming cost of the pages behind them —
// the window was opened by one seek and never pays another.
func (s *Store) ReadPage(id FileID, page int, seqHint bool) (*cache.Frame, error) {
	key := cache.PageKey{File: uint64(id), Page: page}
	if f, ok := s.cache.Get(key); ok {
		s.chargeHit()
		return f, nil
	}
	s.env.Counters.CacheMisses.Add(1)
	f, err := s.load(key, false)
	if err != nil {
		return nil, err
	}
	if seqHint {
		for p, end := page+1, s.windowEnd(id, page); p < end; p++ {
			pk := cache.PageKey{File: uint64(id), Page: p}
			if s.cache.Contains(pk) {
				continue
			}
			pf, err := s.load(pk, true)
			if err != nil {
				break
			}
			s.cache.Unpin(pf)
		}
	}
	return f, nil
}

// Window is a streamed scan's read-ahead window over one file: the pages
// below its end were paid for by the read that opened it. The zero Window
// holds no page.
type Window struct{ end int }

// ReadStreamed reads a page for a maintenance scan — a merge, which reads
// each input front to back once and deletes it when its output installs —
// without filling the buffer cache: a page the cache holds is an ordinary
// hit, and a missing one is read into a recycled frame that is never
// cached, so Unpin returns it to the free list. The frame is pinned as
// ReadPage's is.
//
// w carries the scan's read-ahead window from page to page; pass the same
// one for every page of the file, in ascending order, starting from the zero
// Window. The charges are those of a ReadPage scan on a cold cache: the read
// that opens a window is a miss that pays a seek (a transfer when the head
// is already there) and one streaming transfer for each page of the window
// the cache does not hold, moving the head as the prefetch would; every
// later page of the window costs and counts a cache hit, as the page the
// prefetch installed would, whether the cache holds it or it is read from
// the device now.
func (s *Store) ReadStreamed(id FileID, page int, w *Window) (*cache.Frame, error) {
	key := cache.PageKey{File: uint64(id), Page: page}
	f, cached := s.cache.Get(key)
	if !cached {
		var err error
		if f, err = s.read(key); err != nil {
			return nil, err
		}
	}
	if cached || page < w.end {
		s.chargeHit()
		return f, nil
	}
	s.env.Counters.CacheMisses.Add(1)
	s.charge(id, page, false)
	w.end = s.windowEnd(id, page)
	for p := page + 1; p < w.end; p++ {
		if !s.cache.Contains(cache.PageKey{File: uint64(id), Page: p}) {
			s.charge(id, p, true)
		}
	}
	return f, nil
}

// chargeHit counts and charges a cache hit.
func (s *Store) chargeHit() {
	s.env.Counters.CacheHits.Add(1)
	s.env.Clock.Advance(s.env.CPU.CacheHit)
}

// windowEnd returns the end of the read-ahead window a miss of page opens:
// ReadAheadPages from page, cut at the end of the file (and at page+1 when
// its length is unknown).
func (s *Store) windowEnd(id FileID, page int) int {
	n, err := s.dev.NumPages(id)
	if err != nil {
		return page + 1
	}
	return min(page+s.prof.ReadAheadPages, n)
}

// load reads the page under key, charges the read, caches it, and returns
// the frame pinned. A page that fills half a frame or less (internal and
// meta pages) is cached in a recycled frame of its size class (Fit), and
// the whole frame it was read into goes straight back to the free list; a
// page the device placed in a buffer of its own is cached in that buffer.
func (s *Store) load(key cache.PageKey, prefetch bool) (*cache.Frame, error) {
	f, err := s.read(key)
	if err != nil {
		return nil, err
	}
	s.charge(FileID(key.File), key.Page, prefetch)
	f, allocated := s.cache.Fit(f)
	if allocated {
		s.env.Counters.FrameAllocs.Add(1)
	}
	if s.cache.Put(key, f) {
		s.env.Counters.PinnedEvictions.Add(1)
	}
	return f, nil
}

// read reads the page under key into a recycled frame (or a new one when
// none is free) and returns the frame pinned and uncached, its Data the
// page. It charges no time: the caller knows what the read costs.
func (s *Store) read(key cache.PageKey) (*cache.Frame, error) {
	f, reused := s.cache.Frame()
	if reused {
		s.env.Counters.FrameReuses.Add(1)
	} else {
		s.env.Counters.FrameAllocs.Add(1)
	}
	data, err := s.dev.ReadPage(FileID(key.File), key.Page, f.Data)
	if err != nil {
		s.cache.Unpin(f)
		return nil, err
	}
	s.env.Counters.PageBytesRead.Add(int64(len(data)))
	f.Data = data
	return f, nil
}

// charge moves the head over page of id and charges its device read. A
// prefetch is one page of a read-ahead window: the seek that opened the
// window already positioned the head, so it streams at transfer cost even
// when cached pages inside the window were skipped over. It still moves the
// head, so a read of the page after the window stays sequential.
func (s *Store) charge(id FileID, page int, prefetch bool) {
	if s.head.moveTo(id, page) || prefetch {
		s.env.Counters.SequentialReads.Add(1)
		s.env.Clock.Advance(s.prof.TransferPerPage)
	} else {
		s.env.Counters.RandomReads.Add(1)
		s.env.Clock.Advance(s.prof.Seek + s.prof.TransferPerPage)
	}
}

// Unpin releases a frame ReadPage returned.
func (s *Store) Unpin(f *cache.Frame) { s.cache.Unpin(f) }

// Create allocates a new component file.
func (s *Store) Create() FileID { return s.dev.Create() }

// AppendPage appends a page to a component file being bulk-loaded,
// charging one full TransferPerPage whatever the page's length: a Bloom
// filter's tail page of a few hundred bytes costs what a full leaf does.
// That is kept on purpose: meta and internal pages are short too, and
// charging by length would move every figure (see the package doc's cost
// model). A failed append charges nothing.
func (s *Store) AppendPage(id FileID, data []byte) (int, error) {
	n, err := s.dev.AppendPage(id, data)
	if err != nil {
		return 0, err
	}
	s.env.Counters.PagesWritten.Add(1)
	s.env.Clock.Advance(s.prof.TransferPerPage)
	return n, nil
}

// Delete drops a component file and invalidates its cached pages.
func (s *Store) Delete(id FileID) {
	s.cache.InvalidateFile(uint64(id))
	s.dev.Delete(id)
}

// NumPages returns the length of a file in pages.
func (s *Store) NumPages(id FileID) (int, error) { return s.dev.NumPages(id) }
