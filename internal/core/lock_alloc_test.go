package core

import "testing"

// TestLockUnlockAllocations guards the write path's lock bookkeeping: an
// uncontended Lock/Unlock pair costs at most the lock table's copy of the
// key — the keyLock and its condition variable are recycled.
func TestLockUnlockAllocations(t *testing.T) {
	m := newLockManager()
	key := []byte("a primary key longer than a tiny allocation")
	for _, mode := range []lockMode{lockExclusive, lockShared} {
		pair := func() {
			m.Lock(key, mode)
			m.Unlock(key, mode)
		}
		if got := testing.AllocsPerRun(1000, pair); got > 1 {
			t.Errorf("mode %d: Lock+Unlock allocates %v times, want at most 1", mode, got)
		}
	}
	// Two keys held at once need two locks; both are reused afterwards.
	other := []byte("another key")
	both := func() {
		m.Lock(key, lockExclusive)
		m.Lock(other, lockShared)
		m.Unlock(key, lockExclusive)
		m.Unlock(other, lockShared)
	}
	if got := testing.AllocsPerRun(1000, both); got > 2 {
		t.Errorf("two keys: %v allocations, want at most 2", got)
	}
	if len(m.locks) != 0 {
		t.Fatalf("lock table retains %d entries", len(m.locks))
	}
}
