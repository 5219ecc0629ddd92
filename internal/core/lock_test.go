package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestExclusiveLockMutualExclusion(t *testing.T) {
	m := newLockManager()
	key := []byte("k")
	var counter, max int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Lock(key, lockExclusive)
				c := atomic.AddInt64(&counter, 1)
				if c > atomic.LoadInt64(&max) {
					atomic.StoreInt64(&max, c)
				}
				atomic.AddInt64(&counter, -1)
				m.Unlock(key, lockExclusive)
			}
		}()
	}
	wg.Wait()
	if max != 1 {
		t.Fatalf("X lock admitted %d holders", max)
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	m := newLockManager()
	key := []byte("k")
	m.Lock(key, lockShared)
	done := make(chan struct{})
	go func() {
		m.Lock(key, lockShared) // must not block
		m.Unlock(key, lockShared)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("second shared lock blocked")
	}
	m.Unlock(key, lockShared)
}

func TestSharedBlocksExclusive(t *testing.T) {
	m := newLockManager()
	key := []byte("k")
	m.Lock(key, lockShared)
	acquired := make(chan struct{})
	go func() {
		m.Lock(key, lockExclusive)
		close(acquired)
		m.Unlock(key, lockExclusive)
	}()
	select {
	case <-acquired:
		t.Fatal("X lock acquired while S held")
	case <-time.After(50 * time.Millisecond):
	}
	m.Unlock(key, lockShared)
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("X lock never acquired after S release")
	}
}

func TestDifferentKeysIndependent(t *testing.T) {
	m := newLockManager()
	m.Lock([]byte("a"), lockExclusive)
	done := make(chan struct{})
	go func() {
		m.Lock([]byte("b"), lockExclusive)
		m.Unlock([]byte("b"), lockExclusive)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("lock on b blocked by lock on a")
	}
	m.Unlock([]byte("a"), lockExclusive)
}

func TestLockTableCleansUp(t *testing.T) {
	m := newLockManager()
	for i := 0; i < 100; i++ {
		k := []byte{byte(i)}
		m.Lock(k, lockExclusive)
		m.Unlock(k, lockExclusive)
	}
	m.mu.Lock()
	n := len(m.locks)
	m.mu.Unlock()
	if n != 0 {
		t.Fatalf("lock table retains %d entries", n)
	}
}

func TestWithLock(t *testing.T) {
	m := newLockManager()
	ran := false
	m.withLock([]byte("k"), lockShared, func() { ran = true })
	if !ran {
		t.Fatal("withLock did not run fn")
	}
	// lock released afterwards
	m.Lock([]byte("k"), lockExclusive)
	m.Unlock([]byte("k"), lockExclusive)
}

func TestDatasetLockDrains(t *testing.T) {
	var d datasetLock
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.Enter()
				inFlight.Add(1)
				time.Sleep(time.Microsecond)
				inFlight.Add(-1)
				d.Exit()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		d.Drain(func() {
			if n := inFlight.Load(); n != 0 {
				t.Errorf("drain saw %d in-flight writers", n)
			}
		})
	}
	close(stop)
	wg.Wait()
}

// TestLockHashCollision forces every key onto one hash, so only the chain's
// own copies of the keys tell them apart: an X lock on one key must not
// block an X lock on another, must exclude a second X lock on its own key,
// and the table must be empty once every lock has left its chain, from the
// head, the middle or the tail. Run it under -race.
func TestLockHashCollision(t *testing.T) {
	m := newLockManager()
	m.hashOf = func([]byte) uint64 { return 7 }
	a, b, c := []byte("a"), []byte("b"), []byte("c")

	m.Lock(a, lockExclusive)
	done := make(chan struct{})
	go func() {
		m.Lock(b, lockExclusive)
		m.Unlock(b, lockExclusive)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("X lock on b blocked by the X lock on a, which shares its hash")
	}
	acquired, released := make(chan struct{}), make(chan struct{})
	go func() {
		m.Lock(a, lockExclusive)
		close(acquired)
		m.Unlock(a, lockExclusive)
		close(released)
	}()
	select {
	case <-acquired:
		t.Fatal("a second X lock on a was acquired while the first was held")
	case <-time.After(50 * time.Millisecond):
	}
	m.Unlock(a, lockExclusive)
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("the second X lock on a was never acquired")
	}

	// The chain is c, b, a: leave from the middle, the tail, then the head.
	for _, k := range [][]byte{a, b, c} {
		m.Lock(k, lockShared)
	}
	for _, k := range [][]byte{b, a, c} {
		m.Unlock(k, lockShared)
	}

	// Writers on three colliding keys: each key admits one holder at a time.
	keys := [][]byte{a, b, c}
	var holders [3]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (g + i) % len(keys)
				m.Lock(keys[k], lockExclusive)
				if n := holders[k].Add(1); n != 1 {
					t.Errorf("key %q has %d X holders", keys[k], n)
				}
				holders[k].Add(-1)
				m.Unlock(keys[k], lockExclusive)
			}
		}(g)
	}
	wg.Wait()

	m.mu.Lock()
	n := len(m.locks)
	m.mu.Unlock()
	if n != 0 {
		t.Fatalf("lock table retains %d chains", n)
	}
}
