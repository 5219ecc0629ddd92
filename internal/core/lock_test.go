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
