package core

import "testing"

// TestLockUnlockAllocations guards the write path's lock bookkeeping: an
// uncontended Lock/Unlock pair allocates nothing — the table hashes the key
// bytes instead of converting them, and the keyLock, its condition variable
// and its key buffer are recycled.
func TestLockUnlockAllocations(t *testing.T) {
	m := newLockManager()
	key := []byte("a primary key longer than a tiny allocation")
	for _, mode := range []lockMode{lockExclusive, lockShared} {
		pair := func() {
			m.Lock(key, mode)
			m.Unlock(key, mode)
		}
		if got := testing.AllocsPerRun(1000, pair); got != 0 {
			t.Errorf("mode %d: Lock+Unlock allocates %v times, want 0", mode, got)
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
	if got := testing.AllocsPerRun(1000, both); got != 0 {
		t.Errorf("two keys: %v allocations, want 0", got)
	}
	if len(m.locks) != 0 {
		t.Fatalf("lock table retains %d entries", len(m.locks))
	}
}
