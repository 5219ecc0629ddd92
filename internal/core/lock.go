// Record-level concurrency control, as the paper's ingestion paths assume
// it: writers hold an exclusive lock on a primary key for the duration of a
// write (Section 5.2), component builders take shared locks on scanned keys
// (Lock method, Fig 10), and the Side-file method briefly takes a
// dataset-level lock to drain in-flight writes (Fig 11).

package core

import "sync"

// lockMode distinguishes shared from exclusive key locks.
type lockMode int

// Lock modes.
const (
	lockShared lockMode = iota
	lockExclusive
)

type keyLock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	readers int
	writer  bool
	waiters int
}

// lockManager provides blocking S/X locks on keys.
type lockManager struct {
	mu    sync.Mutex
	locks map[string]*keyLock
}

// newLockManager creates an empty lock table.
func newLockManager() *lockManager {
	return &lockManager{locks: make(map[string]*keyLock)}
}

func (m *lockManager) get(key string) *keyLock {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.locks[key]
	if !ok {
		l = &keyLock{}
		l.cond = sync.NewCond(&l.mu)
		m.locks[key] = l
	}
	l.waiters++
	return l
}

func (m *lockManager) put(key string, l *keyLock) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l.waiters--
	if l.waiters == 0 && l.readers == 0 && !l.writer {
		delete(m.locks, key)
	}
}

// Lock acquires key in the given mode, blocking until compatible.
func (m *lockManager) Lock(key []byte, mode lockMode) {
	k := string(key)
	l := m.get(k)
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
	k := string(key)
	m.mu.Lock()
	l := m.locks[k]
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
	m.put(k, l)
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
