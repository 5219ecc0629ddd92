package storage

import (
	"repro/internal/cache"
	"repro/internal/metrics"
)

// Store combines a page device with the LRU buffer cache and charges the
// virtual clock for each access. It is the single storage handle shared by
// every index of a dataset (as the buffer cache is shared in AsterixDB).
type Store struct {
	dev   Device
	cache *cache.LRU
	env   *metrics.Env
}

// NewStore wraps dev with a buffer cache of cacheBytes capacity, in frames
// of one page.
func NewStore(dev Device, cacheBytes int64, env *metrics.Env) *Store {
	pages := int(cacheBytes / int64(dev.PageSize()))
	return &Store{dev: dev, cache: cache.NewLRU(pages, dev.PageSize()), env: env}
}

// WithEnv returns a Store view sharing this store's device and buffer cache
// but charging the given metrics environment. Background maintenance uses
// it to account its I/O on a separate lane (clock) while keeping the event
// counters and cache state global.
func (s *Store) WithEnv(env *metrics.Env) *Store {
	return &Store{dev: s.dev, cache: s.cache, env: env}
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
		s.env.Counters.CacheHits.Add(1)
		s.env.Clock.Advance(s.env.CPU.CacheHit)
		return f, nil
	}
	s.env.Counters.CacheMisses.Add(1)
	f, err := s.load(key, s.dev.ReadPageEnv)
	if err != nil {
		return nil, err
	}
	if seqHint {
		if n, err := s.dev.NumPages(id); err == nil {
			end := page + s.dev.Profile().ReadAheadPages
			if end > n {
				end = n
			}
			for p := page + 1; p < end; p++ {
				pk := cache.PageKey{File: uint64(id), Page: p}
				if s.cache.Contains(pk) {
					continue
				}
				pf, err := s.load(pk, s.dev.PrefetchPageEnv)
				if err != nil {
					break
				}
				s.cache.Unpin(pf)
			}
		}
	}
	return f, nil
}

// load reads the page under key with read into a recycled frame (or a new
// one when none is free), caches it, and returns the frame pinned. A page
// that would fill less than half a frame is moved to a buffer of its own
// size and the frame goes back to the free list, so small internal and meta
// pages never occupy whole frames; so is a page the device could not place
// in the frame.
func (s *Store) load(key cache.PageKey, read func(*metrics.Env, FileID, int, []byte) ([]byte, error)) (*cache.Frame, error) {
	f, reused := s.cache.Frame()
	if reused {
		s.env.Counters.FrameReuses.Add(1)
	} else {
		s.env.Counters.FrameAllocs.Add(1)
	}
	data, err := read(s.env, FileID(key.File), key.Page, f.Data)
	if err != nil {
		s.cache.Unpin(f)
		return nil, err
	}
	if inFrame := f.Holds(data); inFrame && 2*len(data) >= cap(f.Data) {
		f.Data = data
	} else {
		if inFrame { // a small page: copy it out before the frame is freed
			data = append([]byte(nil), data...)
		}
		own := s.cache.NewFrame(data)
		s.env.Counters.FrameAllocs.Add(1)
		s.cache.Unpin(f)
		f = own
	}
	if s.cache.Put(key, f) {
		s.env.Counters.PinnedEvictions.Add(1)
	}
	return f, nil
}

// Unpin releases a frame ReadPage returned.
func (s *Store) Unpin(f *cache.Frame) { s.cache.Unpin(f) }

// Create allocates a new component file.
func (s *Store) Create() FileID { return s.dev.Create() }

// AppendPage appends a page to a component file being bulk-loaded.
func (s *Store) AppendPage(id FileID, data []byte) (int, error) {
	return s.dev.AppendPageEnv(s.env, id, data)
}

// Delete drops a component file and invalidates its cached pages.
func (s *Store) Delete(id FileID) {
	s.cache.InvalidateFile(uint64(id))
	s.dev.Delete(id)
}

// NumPages returns the length of a file in pages.
func (s *Store) NumPages(id FileID) (int, error) { return s.dev.NumPages(id) }
