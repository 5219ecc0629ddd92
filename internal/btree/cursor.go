package btree

import (
	"bytes"

	"repro/internal/kv"
)

// Scan iterates entries in key order over [lo, hi). Nil bounds are
// unbounded. Leaf pages are fetched with the sequential hint so device
// read-ahead applies.
type Scan struct {
	r    *Reader
	hi   []byte
	leaf page
	idx  int
	err  error
	done bool
}

// NewScan positions a scan at the first entry >= lo.
func (r *Reader) NewScan(lo, hi []byte) (*Scan, error) {
	s := &Scan{r: r, hi: hi}
	if r.count == 0 {
		s.done = true
		return s, nil
	}
	var err error
	if lo == nil {
		s.leaf, err = r.readPage(0, true)
	} else if s.leaf, err = r.descendToLeaf(lo); err == nil {
		s.idx, err = s.leaf.search(r.env, 0, s.leaf.n, lo)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Next returns the next entry. ok is false at the end of the range.
func (s *Scan) Next() (e kv.Entry, ordinal int64, ok bool, err error) {
	if s.done || s.err != nil {
		return kv.Entry{}, 0, false, s.err
	}
	for s.idx >= s.leaf.n {
		next := s.leaf.pageNo + 1
		if next >= s.r.numLeaves {
			s.done = true
			return kv.Entry{}, 0, false, nil
		}
		leaf, err := s.r.readPage(next, true)
		if err != nil {
			s.err = err
			return kv.Entry{}, 0, false, err
		}
		s.leaf, s.idx = leaf, 0
	}
	key, payload, err := s.leaf.slot(s.idx)
	if err != nil {
		s.err = err
		return kv.Entry{}, 0, false, err
	}
	if s.hi != nil && bytes.Compare(key, s.hi) >= 0 {
		s.done = true
		return kv.Entry{}, 0, false, nil
	}
	s.r.env.ChargeDecode(1)
	s.r.env.Counters.EntriesScanned.Add(1)
	e, err = kv.DecodePayload(payload, key)
	if err != nil {
		s.err = err
		return kv.Entry{}, 0, false, err
	}
	ordinal = s.leaf.ordinal + int64(s.idx)
	s.idx++
	return e, ordinal, true, nil
}

// LookupCursor performs repeated point lookups over ascending keys. In
// stateful mode (Section 3.2, "Stateful B+-tree Lookup") it remembers the
// last leaf page and position: when the next key falls inside the same leaf
// it locates the key with exponential search from the previous position
// instead of a fresh root-to-leaf descent.
type LookupCursor struct {
	r        *Reader
	stateful bool
	leaf     page // raw is nil until the first descent
	lastPos  int
}

// NewLookupCursor creates a cursor. stateful toggles the sLookup
// optimization; when false every Lookup descends from the root.
func (r *Reader) NewLookupCursor(stateful bool) *LookupCursor {
	return &LookupCursor{r: r, stateful: stateful}
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
	} else if c.leaf, err = c.r.descendToLeaf(key); err == nil {
		idx, err = c.leaf.search(c.r.env, 0, c.leaf.n, key)
	}
	if err != nil {
		return kv.Entry{}, 0, false, err
	}
	c.lastPos = idx
	return c.leaf.found(c.r.env, idx, key)
}

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
