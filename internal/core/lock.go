// Record-level concurrency control, as the paper's ingestion paths assume
// it: writers hold an exclusive lock on a primary key for the duration of a
// write (Section 5.2), component builders take shared locks on scanned keys
// (Lock method, Fig 10), and the Side-file method briefly takes a
// dataset-level lock to drain in-flight writes (Fig 11).

package core

import (
	"bytes"
	"hash/maphash"
	"sync"
)

// lockMode distinguishes shared from exclusive key locks.
type lockMode int

// Lock modes.
const (
	lockShared lockMode = iota
	lockExclusive
)

// keyLock is one key's lock state. It lives in the lock table only while
// somebody holds or waits for the key; after that it is recycled, key
// buffer included, so a write that takes and releases a key allocates
// nothing.
type keyLock struct {
	mu      sync.Mutex
	cond    sync.Cond // on mu
	readers int
	writer  bool

	// Guarded by lockManager.mu: the table's copy of the key and its hash,
	// how many holders and waiters reference the lock, and the link to the
	// next lock in the same hash chain (or, once recycled, on the free
	// list).
	key  []byte
	hash uint64
	refs int
	next *keyLock
}

// lockManager provides blocking S/X locks on keys. The table is keyed by a
// hash of the key bytes, so looking a key up or adding one converts
// nothing; the locks whose keys share a hash form a chain told apart by
// their own copies of the key.
type lockManager struct {
	mu    sync.Mutex
	seed  maphash.Seed
	locks map[uint64]*keyLock // hash -> chain
	free  *keyLock            // recycled locks: no holder, no waiter

	// hashOf replaces the key hash when set; only tests set it, to force
	// distinct keys onto one chain.
	hashOf func(key []byte) uint64
}

// newLockManager creates an empty lock table.
func newLockManager() *lockManager {
	return &lockManager{seed: maphash.MakeSeed(), locks: make(map[uint64]*keyLock)}
}

func (m *lockManager) hash(key []byte) uint64 {
	if m.hashOf != nil {
		return m.hashOf(key)
	}
	return maphash.Bytes(m.seed, key)
}

// lookup returns key's lock, or nil. The caller holds m.mu.
func (m *lockManager) lookup(key []byte, h uint64) *keyLock {
	for l := m.locks[h]; l != nil; l = l.next {
		if bytes.Equal(l.key, key) {
			return l
		}
	}
	return nil
}

// Lock acquires key in the given mode, blocking until compatible.
func (m *lockManager) Lock(key []byte, mode lockMode) {
	h := m.hash(key)
	m.mu.Lock()
	l := m.lookup(key, h)
	if l == nil {
		if l = m.free; l != nil {
			m.free = l.next
		} else {
			l = &keyLock{}
			l.cond.L = &l.mu
		}
		l.key, l.hash = append(l.key[:0], key...), h
		l.next, m.locks[h] = m.locks[h], l
	}
	l.refs++
	m.mu.Unlock()

	l.mu.Lock()
	if mode == lockExclusive {
		for l.writer || l.readers > 0 {
			l.cond.Wait()
		}
		l.writer = true
	} else {
		for l.writer {
			l.cond.Wait()
		}
		l.readers++
	}
	l.mu.Unlock()
}

// Unlock releases key from the given mode.
func (m *lockManager) Unlock(key []byte, mode lockMode) {
	h := m.hash(key)
	m.mu.Lock()
	l := m.lookup(key, h)
	m.mu.Unlock()
	if l == nil {
		return
	}
	l.mu.Lock()
	if mode == lockExclusive {
		l.writer = false
	} else {
		l.readers--
	}
	l.cond.Broadcast()
	l.mu.Unlock()

	// The reference taken by Lock is dropped last: until then the lock
	// cannot leave the table, so the pointer looked up above stayed this
	// key's. With no reference left nobody else holds the pointer, and the
	// lock leaves its chain for the free list.
	m.mu.Lock()
	l.refs--
	if l.refs == 0 {
		m.unchain(l)
		l.next, m.free = m.free, l
	}
	m.mu.Unlock()
}

// unchain removes l from its hash chain. The caller holds m.mu.
func (m *lockManager) unchain(l *keyLock) {
	p := m.locks[l.hash]
	switch {
	case p != l:
		for p.next != l {
			p = p.next
		}
		p.next = l.next
	case l.next != nil:
		m.locks[l.hash] = l.next
	default:
		delete(m.locks, l.hash)
	}
}

// withLock runs fn while holding key in the given mode.
func (m *lockManager) withLock(key []byte, mode lockMode, fn func()) {
	m.Lock(key, mode)
	defer m.Unlock(key, mode)
	fn()
}

// datasetLock is the dataset-level lock of the Side-file protocol: normal
// writers hold it shared for the duration of each record-level transaction;
// the component builder takes it exclusively (the paper's "S lock dataset"
// drains in-flight transactions; exclusivity against writers is what the
// drain achieves, so we model it directly as a write lock).
type datasetLock struct {
	mu sync.RWMutex
}

// Enter marks a writer transaction in flight.
func (d *datasetLock) Enter() { d.mu.RLock() }

// Exit marks the writer transaction finished.
func (d *datasetLock) Exit() { d.mu.RUnlock() }

// Drain blocks until all in-flight writers exit, runs fn, then reopens.
func (d *datasetLock) Drain(fn func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fn()
}
