package txn

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestExclusiveLockMutualExclusion(t *testing.T) {
	m := NewLockManager()
	key := []byte("k")
	var counter, max int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Lock(key, Exclusive)
				c := atomic.AddInt64(&counter, 1)
				if c > atomic.LoadInt64(&max) {
					atomic.StoreInt64(&max, c)
				}
				atomic.AddInt64(&counter, -1)
				m.Unlock(key, Exclusive)
			}
		}()
	}
	wg.Wait()
	if max != 1 {
		t.Fatalf("X lock admitted %d holders", max)
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	m := NewLockManager()
	key := []byte("k")
	m.Lock(key, Shared)
	done := make(chan struct{})
	go func() {
		m.Lock(key, Shared) // must not block
		m.Unlock(key, Shared)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("second shared lock blocked")
	}
	m.Unlock(key, Shared)
}

func TestSharedBlocksExclusive(t *testing.T) {
	m := NewLockManager()
	key := []byte("k")
	m.Lock(key, Shared)
	acquired := make(chan struct{})
	go func() {
		m.Lock(key, Exclusive)
		close(acquired)
		m.Unlock(key, Exclusive)
	}()
	select {
	case <-acquired:
		t.Fatal("X lock acquired while S held")
	case <-time.After(50 * time.Millisecond):
	}
	m.Unlock(key, Shared)
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("X lock never acquired after S release")
	}
}

func TestDifferentKeysIndependent(t *testing.T) {
	m := NewLockManager()
	m.Lock([]byte("a"), Exclusive)
	done := make(chan struct{})
	go func() {
		m.Lock([]byte("b"), Exclusive)
		m.Unlock([]byte("b"), Exclusive)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("lock on b blocked by lock on a")
	}
	m.Unlock([]byte("a"), Exclusive)
}

func TestLockTableCleansUp(t *testing.T) {
	m := NewLockManager()
	for i := 0; i < 100; i++ {
		k := []byte{byte(i)}
		m.Lock(k, Exclusive)
		m.Unlock(k, Exclusive)
	}
	m.mu.Lock()
	n := len(m.locks)
	m.mu.Unlock()
	if n != 0 {
		t.Fatalf("lock table retains %d entries", n)
	}
}

func TestWithLock(t *testing.T) {
	m := NewLockManager()
	ran := false
	m.WithLock([]byte("k"), Shared, func() { ran = true })
	if !ran {
		t.Fatal("WithLock did not run fn")
	}
	// lock released afterwards
	m.Lock([]byte("k"), Exclusive)
	m.Unlock([]byte("k"), Exclusive)
}

func TestDatasetLockDrains(t *testing.T) {
	var d DatasetLock
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
