package btree

import (
	"bytes"

	"repro/internal/kv"
	"repro/internal/storage"
)

// Scan iterates entries in key order over [lo, hi). Nil bounds are
// unbounded. Leaf pages are fetched with the sequential hint so device
// read-ahead applies, or, for a streamed scan, through a read-ahead window
// that bypasses the buffer cache (NewStreamedScan).
//
// A scan pins the leaf it is positioned on. An entry Next returns stays
// valid through the following Next call, until the one after it or Close —
// one step longer than the usual iterator contract, because a merged
// iterator advances a source past the entry it is about to emit: when Next
// moves on to the next leaf, or reaches the end of the range or an error,
// it keeps the leaf of the entry it returned last pinned for that one more
// step. Close releases the pins and must be called once the scan is done,
// whether or not it ran to its end.
type Scan struct {
	r    *Reader
	hi   []byte
	leaf page
	// prev is the leaf of the entry the last Next returned, once the scan
	// has moved past it; held reports that leaf is that leaf.
	prev page
	held bool
	hide Filter
	idx  int
	err  error
	done bool
	// stream reads leaves with Store.ReadStreamed through window.
	stream bool
	window storage.Window
}

// NewScan positions a scan at the first entry >= lo. On error nothing is
// left pinned and the returned scan is empty.
func (r *Reader) NewScan(lo, hi []byte) (Scan, error) {
	return Scan{r: r, hi: hi}.start(lo)
}

// NewStreamedScan is a full scan for maintenance: a merge reads each input
// once, front to back, and deletes it when its output installs, so the
// leaves it reads are not worth caching. It reads them with
// Store.ReadStreamed, leaving the buffer cache as it found it while charging
// what a full NewScan on a cold cache would.
func (r *Reader) NewStreamedScan() (Scan, error) {
	return Scan{r: r, stream: true}.start(nil)
}

// start positions s at the first entry >= lo.
func (s Scan) start(lo []byte) (Scan, error) {
	if s.r.count == 0 {
		s.done = true
		return s, nil
	}
	var err error
	if lo == nil {
		s.leaf, err = s.readLeaf(0)
	} else if s.leaf, err = s.r.descendToLeaf(lo); err == nil {
		if s.idx, err = s.leaf.search(s.r.env, 0, s.leaf.n, lo); err != nil {
			s.r.unpin(&s.leaf)
		}
	}
	if err != nil {
		return Scan{}, err
	}
	return s, nil
}

// readLeaf returns leaf pageNo pinned: a cached read with the sequential
// hint, or a streamed one.
func (s *Scan) readLeaf(pageNo int) (page, error) {
	if !s.stream {
		return s.r.readPage(pageNo, true)
	}
	f, err := s.r.store.ReadStreamed(s.r.file, pageNo, &s.window)
	if err != nil {
		return page{}, err
	}
	return s.r.view(f, pageNo)
}

// A Filter hides entries from a scan by their ordinal (the visibility
// bitmaps of an LSM component).
type Filter interface {
	Hidden(ordinal int64) bool
}

// Hide makes Next pass over every entry f hides. Skipping inside the scan
// keeps the pin on the last returned entry's leaf across any number of
// hidden leaves. Hidden entries are still charged and counted as scanned.
func (s *Scan) Hide(f Filter) { s.hide = f }

// Next returns the next entry. ok is false at the end of the range.
func (s *Scan) Next() (e kv.Entry, ordinal int64, ok bool, err error) {
	if s.done || s.err != nil {
		return kv.Entry{}, 0, false, s.err
	}
	s.r.unpin(&s.prev)
	for {
		for s.idx >= s.leaf.n {
			next := s.leaf.pageNo + 1
			if next >= s.r.numLeaves {
				s.finish(nil)
				return kv.Entry{}, 0, false, nil
			}
			leaf, err := s.readLeaf(next)
			if err != nil {
				s.finish(err)
				return kv.Entry{}, 0, false, err
			}
			if s.held && !s.r.store.Cache().UnsafeEarlyUnpin() {
				s.prev = s.leaf
			} else {
				s.r.unpin(&s.leaf)
			}
			s.held = false
			s.leaf, s.idx = leaf, 0
		}
		key, payload, err := s.leaf.slot(s.idx)
		if err != nil {
			s.finish(err)
			return kv.Entry{}, 0, false, err
		}
		if s.hi != nil && bytes.Compare(key, s.hi) >= 0 {
			s.finish(nil)
			return kv.Entry{}, 0, false, nil
		}
		s.r.env.ChargeDecode(1)
		s.r.env.Counters.EntriesScanned.Add(1)
		ordinal = s.leaf.ordinal + int64(s.idx)
		s.idx++
		if s.hide != nil && s.hide.Hidden(ordinal) {
			continue
		}
		if e, err = kv.DecodePayload(payload, key); err != nil {
			s.finish(err)
			return kv.Entry{}, 0, false, err
		}
		s.held = true
		return e, ordinal, true, nil
	}
}

// finish ends the scan with err (nil at the end of the range). It keeps
// only the pin on the leaf of the entry the last Next returned, for Close to
// release.
func (s *Scan) finish(err error) {
	s.done, s.err = true, err
	if !s.held {
		s.r.unpin(&s.leaf)
	}
}

// Close releases the scan's pins; Next then reports the end (or the error
// the scan failed with). It may be called more than once.
func (s *Scan) Close() {
	s.done = true
	s.r.unpin(&s.prev)
	s.r.unpin(&s.leaf)
	s.held = false
}

// LookupCursor performs repeated point lookups over ascending keys. In
// stateful mode (Section 3.2, "Stateful B+-tree Lookup") it remembers the
// last leaf page and position: when the next key falls inside the same leaf
// it locates the key with exponential search from the previous position
// instead of a fresh root-to-leaf descent.
//
// The cursor pins the leaf of its last lookup: an entry Lookup returns
// stays valid until the next Lookup or Close, and Close must be called
// once the cursor is done. Like a Scan it is a value, so a query keeps its
// cursors in a slice it reuses.
type LookupCursor struct {
	r        *Reader
	stateful bool
	leaf     page // raw is nil until the first descent
	lastPos  int
}

// NewLookupCursor creates a cursor. stateful toggles the sLookup
// optimization; when false every Lookup descends from the root.
func (r *Reader) NewLookupCursor(stateful bool) LookupCursor {
	return LookupCursor{r: r, stateful: stateful}
}

// Lookup finds key, returning the entry, its ordinal and whether it exists.
func (c *LookupCursor) Lookup(key []byte) (kv.Entry, int64, bool, error) {
	c.r.env.Counters.PointLookups.Add(1)
	if c.r.count == 0 {
		return kv.Entry{}, 0, false, nil
	}
	inLeaf := false
	if c.stateful && c.leaf.raw != nil {
		var err error
		if inLeaf, err = c.covers(key); err != nil {
			return kv.Entry{}, 0, false, err
		}
	}
	var idx int
	var err error
	if inLeaf {
		idx, err = c.exponentialSearch(key)
	} else {
		c.r.unpin(&c.leaf)
		if c.leaf, err = c.r.descendToLeaf(key); err == nil {
			idx, err = c.leaf.search(c.r.env, 0, c.leaf.n, key)
		}
	}
	if err != nil {
		return kv.Entry{}, 0, false, err
	}
	c.lastPos = idx
	return c.leaf.found(c.r.env, idx, key)
}

// Close releases the cursor's pinned leaf. The cursor may be used again
// afterwards (its next Lookup descends from the root) and closed again.
func (c *LookupCursor) Close() { c.r.unpin(&c.leaf) }

// covers reports whether key falls inside the current leaf's key range.
// The last leaf of the tree also covers keys beyond its final entry.
func (c *LookupCursor) covers(key []byte) (bool, error) {
	first, err := c.leaf.key(0)
	if err != nil {
		return false, err
	}
	if compareCharged(c.r.env, key, first) < 0 {
		return false, nil
	}
	if c.leaf.pageNo == c.r.numLeaves-1 {
		return true, nil
	}
	last, err := c.leaf.key(c.leaf.n - 1)
	if err != nil {
		return false, err
	}
	return compareCharged(c.r.env, key, last) <= 0, nil
}

// exponentialSearch locates the first index >= key starting from the last
// position, using exponentially growing steps followed by binary search
// (Bentley & Yao), charging each comparison.
func (c *LookupCursor) exponentialSearch(key []byte) (int, error) {
	leaf, env := &c.leaf, c.r.env
	n := leaf.n
	pos := c.lastPos
	if pos >= n {
		pos = n - 1
	}
	if pos < 0 {
		pos = 0
	}
	// below reports whether slot i's key sorts before key.
	below := func(i int) (bool, error) {
		k, err := leaf.key(i)
		return err == nil && compareCharged(env, k, key) < 0, err
	}
	lt, err := below(pos)
	if err != nil {
		return 0, err
	}
	if !lt {
		// search backwards
		step := 1
		lo, hi := 0, pos
		for pos-step >= 0 {
			if lt, err = below(pos - step); err != nil {
				return 0, err
			}
			if lt {
				lo = pos - step + 1
				break
			}
			hi = pos - step
			step *= 2
		}
		return leaf.search(env, lo, hi, key)
	}
	// search forwards
	step := 1
	lo, hi := pos+1, n
	for pos+step < n {
		if lt, err = below(pos + step); err != nil {
			return 0, err
		}
		if !lt {
			hi = pos + step
			break
		}
		lo = pos + step + 1
		step *= 2
	}
	return leaf.search(env, lo, hi, key)
}
