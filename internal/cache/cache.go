// Package cache implements the LRU buffer cache that fronts the simulated
// disk, playing the role of the paper's 2 GB (HDD) / 4 GB (SSD) disk buffer
// cache. Capacity is expressed in pages; hits are charged at in-memory cost
// by the caller, misses fall through to the device.
//
// Like AsterixDB's buffer cache it is a pool of frames. A reader pins the
// frame it reads (Get and Put return it pinned) and unpins it when it is
// done with the page's bytes; a miss reads the page into a recycled frame
// (Frame) instead of a fresh buffer. Pins never change what is cached:
// Get, Put, Contains and InvalidateFile keep, promote and evict exactly the
// pages an unpinned cache would, so the hit/miss sequence does not depend on
// who holds a page. A pin only decides when an evicted or invalidated
// frame's buffer may be reused: at once when nobody holds it, else at its
// last Unpin. Until then the evicted frame is out of the cache and its bytes
// stay the page its holders read.
//
// Frames come in power-of-two size classes: whole frames of the device page
// size and halves of one down to a 64th (512 bytes at a 32 KiB page). A
// miss reads into a whole frame; Fit moves a page that fills half a frame or
// less (internal and meta pages) into a frame of the smallest class that
// holds it, so small pages neither occupy whole frames nor cost a buffer of
// their own. Each class has its own free list. Whole frames are kept while
// the pages cached in whole frames plus the free whole frames stay within
// capacity+spareFrames, and each smaller class keeps at most spareFrames
// free ones. So the whole frames are a fixed pool, whatever share of the
// cache small pages take from one moment to the next, and readers and
// streamed scans that pin up to spareFrames frames at once on a full cache
// find them free instead of allocating.
//
// A reader that must not fill the cache — a merge streaming its inputs,
// which it reads once and then deletes — reads a missing page into a frame
// from Frame and never hands it to Put: its Unpin returns the frame to the
// free list, and the cache holds what it held before.
package cache

import (
	"sync"
	"sync/atomic"
)

// PageKey identifies a cached page: (file, page number).
type PageKey struct {
	File uint64
	Page int
}

// Frame is one page buffer of the cache and its own links in the recency
// list, so a hit follows no second pointer. A frame handed out by Get, Put,
// Frame or Fit is pinned: Data is the page's bytes, unchanged, until the
// holder calls Unpin, after which the holder must not touch them. Unpinned
// and uncached, the frame and its buffer go back to the free list of their
// size class together.
type Frame struct {
	prev, next *Frame
	key        PageKey
	// Data is the page. A reader may read it while it holds a pin and must
	// never modify it once the frame is cached.
	Data []byte
	// buf is the buffer Data lies in (a device may place the page a few
	// bytes into it); recycling the frame recycles buf.
	buf []byte
	// class is buf's size class (frameBytes>>class bytes), or -1 for a
	// buffer a device allocated for the page itself, which is never
	// recycled.
	class  int8
	pins   int32
	cached bool
}

// poison is the pattern SetPoison writes over a freed frame's buffer.
const poison = 0xDB

// classes is the number of frame size classes: whole frames and their
// halves down to a 64th of a frame.
const classes = 7

// spareFrames is how many frames beyond a full cache's pages each size
// class keeps free. It covers the frames pinned at once outside the cache:
// a merge's streamed scans (at most two per input) and pages concurrent
// readers hold after their eviction. Without them, a full cache drops such
// frames at their unpin and the next misses allocate new ones.
const spareFrames = 8

// LRU is a fixed-capacity least-recently-used page cache. It is safe for
// concurrent use.
type LRU struct {
	mu         sync.Mutex
	capacity   int
	frameBytes int
	nclasses   int // classes whose frames hold at least a byte
	items      map[PageKey]*Frame
	// root is the sentinel of the circular recency list: root.next is the
	// most recently used frame, root.prev the least.
	root Frame
	// free holds each size class's unpinned, uncached frames, linked
	// through next; nfree counts them.
	free   [classes]*Frame
	nfree  [classes]int
	whole  int // cached pages in whole frames
	pinned int // frames with pins > 0, cached or not

	poison     atomic.Bool
	earlyUnpin atomic.Bool
}

// NewLRU creates a cache holding at most capacity pages, whose whole frames
// have frameBytes of buffer (the device page size). A capacity of 0
// disables caching (every Get misses).
func NewLRU(capacity, frameBytes int) *LRU {
	c := &LRU{capacity: capacity, frameBytes: frameBytes, nclasses: 1, items: make(map[PageKey]*Frame)}
	for c.nclasses < classes && frameBytes>>c.nclasses > 0 {
		c.nclasses++
	}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// holds reports whether p lies in f's buffer, as a page a device read into
// the frame does; a page the device had to put in a buffer of its own does
// not.
func (f *Frame) holds(p []byte) bool {
	return cap(p) > 0 && cap(f.buf) > 0 && &p[:cap(p)][cap(p)-1] == &f.buf[:cap(f.buf)][cap(f.buf)-1]
}

func (f *Frame) unlink() {
	f.prev.next, f.next.prev = f.next, f.prev
}

// pushFront makes f the most recently used frame.
func (c *LRU) pushFront(f *Frame) {
	f.prev, f.next = &c.root, c.root.next
	f.prev.next, f.next.prev = f, f
}

func (c *LRU) pin(f *Frame) {
	if f.pins == 0 {
		c.pinned++
	}
	f.pins++
}

// Get returns the cached page's frame, pinned, and true on a hit.
func (c *LRU) Get(key PageKey) (*Frame, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.items[key]; ok {
		f.unlink()
		c.pushFront(f)
		c.pin(f)
		return f, true
	}
	return nil, false
}

// Frame returns a pinned, uncached whole frame to read a page into: a
// recycled one when one is free (reused is true), else a new one with
// frameBytes of buffer. Data is empty with the buffer's capacity behind it:
// read the page into it, set Data to the page, and hand the frame to Fit
// and then Put; or Unpin it when the read failed, or once done with a page
// that is not to be cached.
func (c *LRU) Frame() (f *Frame, reused bool) {
	return c.frame(0)
}

// frame returns a pinned, uncached frame of size class i, recycled when one
// is free.
func (c *LRU) frame(i int) (f *Frame, reused bool) {
	c.mu.Lock()
	if f = c.free[i]; f != nil {
		c.free[i], f.next = f.next, nil
		c.nfree[i]--
		c.pin(f)
		c.mu.Unlock()
		f.Data = f.buf[:0]
		return f, true
	}
	c.pinned++
	c.mu.Unlock()
	buf := make([]byte, 0, c.frameBytes>>i)
	return &Frame{Data: buf, buf: buf, class: int8(i), pins: 1}, false
}

// Fit returns the frame to cache f's page in, f being a pinned, uncached
// whole frame from Frame that a page was read into. A page filling more
// than half of f stays in it. A smaller one is copied into a frame of the
// smallest size class that holds it, and f goes back to the free list. A
// page the device placed in a buffer of its own moves, uncopied, to a frame
// around that buffer, which is never recycled. allocated reports whether
// the returned frame is a new one that was not f.
func (c *LRU) Fit(f *Frame) (g *Frame, allocated bool) {
	data := f.Data
	if f.holds(data) {
		i := 0
		for i+1 < c.nclasses && c.frameBytes>>(i+1) >= len(data) {
			i++
		}
		if i == 0 {
			return f, false
		}
		var reused bool
		g, reused = c.frame(i)
		g.Data = append(g.Data, data...)
		allocated = !reused
	} else {
		c.mu.Lock()
		c.pinned++
		c.mu.Unlock()
		g, allocated = &Frame{Data: data, buf: data, class: -1, pins: 1}, true
	}
	c.Unpin(f)
	return g, allocated
}

// Put caches f, a pinned frame holding the page under key, evicting the
// least recently used page if full; f stays pinned for the caller. A page
// already cached under key is replaced (concurrent misses of one page both
// read it). It reports whether the evicted page was pinned: its frame then
// leaves the cache but keeps its bytes until its last Unpin.
func (c *LRU) Put(key PageKey, f *Frame) (pinnedVictim bool) {
	if c.capacity == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.items[key]; ok {
		c.drop(old)
	} else if len(c.items) >= c.capacity {
		victim := c.root.prev
		pinnedVictim = victim.pins > 0
		c.drop(victim)
	}
	f.key, f.cached = key, true
	if f.class == 0 {
		c.whole++
	}
	c.pushFront(f)
	c.items[key] = f
	return pinnedVictim
}

// drop takes a cached frame out of the cache; an unpinned one is freed at
// once, a pinned one at its last Unpin.
func (c *LRU) drop(f *Frame) {
	f.unlink()
	delete(c.items, f.key)
	f.cached = false
	if f.class == 0 {
		c.whole--
	}
	if f.pins == 0 {
		c.release(f)
	}
}

// release frees an unpinned, uncached frame: it joins its class's free list
// while the class has room for it — whole frames while cached whole pages
// plus free whole frames stay within capacity+spareFrames, smaller ones up
// to spareFrames free — else it is left to the garbage collector, as a
// buffer a device allocated always is. Either way it is poisoned first when
// SetPoison is on.
func (c *LRU) release(f *Frame) {
	if c.poison.Load() {
		buf := f.buf[:cap(f.buf)]
		for i := range buf {
			buf[i] = poison
		}
	}
	i := f.class
	if i < 0 || i == 0 && c.whole+c.nfree[0] >= c.capacity+spareFrames || i > 0 && c.nfree[i] >= spareFrames {
		return
	}
	f.Data = nil
	f.prev, f.next = nil, c.free[i]
	c.free[i] = f
	c.nfree[i]++
}

// Unpin releases one pin on f. Unpinning a frame more times than it was
// pinned panics: the page may already serve another reader.
func (c *LRU) Unpin(f *Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.pins <= 0 {
		panic("cache: Unpin of an unpinned frame")
	}
	f.pins--
	if f.pins > 0 {
		return
	}
	c.pinned--
	if !f.cached {
		c.release(f)
	}
}

// Contains reports whether key is cached without promoting it in the LRU
// order and without counting a hit or miss. Read-ahead uses it to skip
// already-cached pages of a prefetch window: a prefetch overlap is not a
// use of the page and must not disturb recency or the statistics.
func (c *LRU) Contains(key PageKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// InvalidateFile drops every cached page of the given file (component drop).
func (c *LRU) InvalidateFile(file uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, f := range c.items {
		if key.File == file {
			c.drop(f)
		}
	}
}

// Len returns the number of cached pages.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Capacity returns the page capacity.
func (c *LRU) Capacity() int { return c.capacity }

// Pinned returns the number of pinned frames, cached or evicted. It is 0
// whenever no read is in progress.
func (c *LRU) Pinned() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pinned
}

// Reset drops every cached page.
func (c *LRU) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.items {
		c.drop(f)
	}
}

// SetPoison makes every freed frame's buffer — recycled or dropped — fill
// with a poison pattern, so a reader that kept using a page after unpinning
// it reads garbage (and, under the race detector, races with the frame's
// next read) instead of bytes that merely happen to be still right. Tests
// and the deterministic simulation turn it on; it costs a pass over each
// freed buffer.
func (c *LRU) SetPoison(on bool) { c.poison.Store(on) }

// SetUnsafeEarlyUnpin re-arms, on purpose, a pin-lifetime bug for the
// deterministic simulation to catch: a B+-tree scan drops its previous
// leaf's pin as soon as it moves on, so the entry its last Next returned
// may be overwritten while a merged iterator still compares or copies it.
func (c *LRU) SetUnsafeEarlyUnpin(on bool) { c.earlyUnpin.Store(on) }

// UnsafeEarlyUnpin reports whether SetUnsafeEarlyUnpin armed the bug.
func (c *LRU) UnsafeEarlyUnpin() bool { return c.earlyUnpin.Load() }
