package admission

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitQueued polls until the controller reports n queued waiters.
func waitQueued(t *testing.T, c *Controller, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c.Snapshot().Queued == n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("queue never reached %d waiters (at %d)", n, c.Snapshot().Queued)
}

func TestAcquireFastPath(t *testing.T) {
	c := New(Config{Budget: 4})
	rel, err := c.Acquire(ClassRead)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	s := c.Snapshot()
	if s.InFlight != 1 || s.Admitted != 1 {
		t.Fatalf("snapshot after admit: %+v", s)
	}
	rel()
	rel() // idempotent
	if got := c.Snapshot().InFlight; got != 0 {
		t.Fatalf("in-flight after double release = %d, want 0", got)
	}
}

func TestWeightClampedToBudget(t *testing.T) {
	c := New(Config{Budget: 2})
	if w := c.Weight(ClassScan); w != 2 {
		t.Fatalf("scan weight = %d, want clamped to budget 2", w)
	}
	rel, err := c.Acquire(ClassScan)
	if err != nil {
		t.Fatalf("oversized class must still admit: %v", err)
	}
	rel()
}

func TestBudgetNeverExceeded(t *testing.T) {
	const budget = 5
	c := New(Config{Budget: budget, QueueDeadline: 50 * time.Millisecond})
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	classes := []Class{ClassRead, ClassWrite, ClassBatch, ClassQuery, ClassScan}
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				cl := classes[(i+j)%len(classes)]
				rel, err := c.Acquire(cl)
				if err != nil {
					continue
				}
				w := c.Weight(cl)
				v := cur.Add(w)
				for {
					p := peak.Load()
					if v <= p || peak.CompareAndSwap(p, v) {
						break
					}
				}
				cur.Add(-w)
				rel()
			}
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > budget {
		t.Fatalf("weighted in-flight peaked at %d, budget %d", p, budget)
	}
	if s := c.Snapshot(); s.InFlight != 0 || s.Queued != 0 {
		t.Fatalf("leaked state: %+v", s)
	}
}

func TestQueueFIFO(t *testing.T) {
	c := New(Config{Budget: 1, MaxQueue: 8, QueueDeadline: 2 * time.Second})
	rel, err := c.Acquire(ClassRead)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	order := make(chan int, 3)
	for i := 0; i < 3; i++ {
		i := i
		go func() {
			r, err := c.Acquire(ClassRead)
			if err != nil {
				t.Errorf("queued acquire %d: %v", i, err)
				return
			}
			order <- i
			r()
		}()
		// Serialize the goroutine launches so queue order matches i.
		waitQueued(t, c, i+1)
	}
	rel()
	for want := 0; want < 3; want++ {
		select {
		case got := <-order:
			if got != want {
				t.Fatalf("admit order: got %d, want %d", got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("waiter %d never admitted", want)
		}
	}
}

func TestQueueDeadlineShed(t *testing.T) {
	c := New(Config{Budget: 1, QueueDeadline: 5 * time.Millisecond})
	rel, err := c.Acquire(ClassRead)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer rel()
	start := time.Now()
	_, err = c.Acquire(ClassRead)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if elapsed < 5*time.Millisecond {
		t.Fatalf("shed before deadline: %v", elapsed)
	}
	if elapsed > time.Second {
		t.Fatalf("shed took %v, not a fast fail", elapsed)
	}
	s := c.Snapshot()
	if s.ShedDeadline != 1 {
		t.Fatalf("ShedDeadline = %d, want 1 (%+v)", s.ShedDeadline, s)
	}
	if c.ShedHist().Count != 1 {
		t.Fatalf("shed hist count = %d, want 1", c.ShedHist().Count)
	}
}

func TestQueueDisabledShedsImmediately(t *testing.T) {
	c := New(Config{Budget: 1, MaxQueue: -1})
	rel, err := c.Acquire(ClassRead)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer rel()
	start := time.Now()
	_, err = c.Acquire(ClassRead)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("no-queue shed took %v, want immediate", d)
	}
	if s := c.Snapshot(); s.ShedQueueFull != 1 {
		t.Fatalf("ShedQueueFull = %d, want 1", s.ShedQueueFull)
	}
}

// TestExpiredHeadAdmitsWaitersBehind pins that a queue head shed by its
// deadline hands the budget on: a small waiter stuck behind an oversized
// head is admitted the moment the head expires, not at the next release
// or its own deadline.
func TestExpiredHeadAdmitsWaitersBehind(t *testing.T) {
	const deadline = 200 * time.Millisecond
	c := New(Config{Budget: 4, QueueDeadline: deadline})
	for i := 0; i < 3; i++ {
		rel, err := c.Acquire(ClassRead)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		defer rel()
	}
	batchErr := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ClassBatch) // weight 4: waits for an empty budget
		batchErr <- err
	}()
	waitQueued(t, c, 1)
	time.Sleep(deadline / 2)

	start := time.Now()
	rel, err := c.Acquire(ClassRead) // fits, but queues behind the batch
	if err != nil {
		t.Fatalf("read behind the expired head: %v after %v, want admission", err, time.Since(start))
	}
	rel()
	if waited := time.Since(start); waited >= deadline {
		t.Fatalf("read admitted after %v, want before its own %v deadline", waited, deadline)
	}
	if err := <-batchErr; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch err = %v, want ErrOverloaded", err)
	}
	if s := c.Snapshot(); s.ShedDeadline != 1 || s.AdmittedAfterWait != 1 {
		t.Fatalf("snapshot: %+v", s)
	}
}

func TestCloseShedsQueueAndFailsAcquires(t *testing.T) {
	c := New(Config{Budget: 1, QueueDeadline: 2 * time.Second})
	rel, err := c.Acquire(ClassRead)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ClassRead)
		errCh <- err
	}()
	waitQueued(t, c, 1)
	c.Close()
	c.Close() // idempotent
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("queued waiter err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued waiter not shed by Close")
	}
	if _, err := c.Acquire(ClassRead); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close acquire err = %v, want ErrClosed", err)
	}
	rel() // release after close must not panic
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		ClassRead: "read", ClassWrite: "write", ClassBatch: "batch",
		ClassQuery: "query", ClassScan: "scan",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("Class(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
	if Class(200).String() != "class(200)" {
		t.Fatalf("unknown class string = %q", Class(200).String())
	}
}

func TestSnapshotShedTotal(t *testing.T) {
	s := Snapshot{ShedQueueFull: 1, ShedDeadline: 2}
	if got := s.Shed(); got != 3 {
		t.Fatalf("Shed() = %d, want 3", got)
	}
}

// queueSlots returns the capacity of c's queue and how many of its slots,
// up to that capacity, still reference a waiter.
func queueSlots(c *Controller) (capacity, held int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.queue[:cap(c.queue)] {
		if w != nil {
			held++
		}
	}
	return cap(c.queue), held
}

// TestDequeuedWaitersLeaveTheQueue pins that neither an admitted waiter nor
// one shed by its deadline stays reachable from the queue's backing array
// once it has left the queue: the queue keeps the slots its waiters used
// (a queue popped by reslicing its front hides them instead, still
// reachable) and every one of them is clear.
func TestDequeuedWaitersLeaveTheQueue(t *testing.T) {
	for _, tc := range []struct {
		name     string
		deadline time.Duration
		release  bool // release the held budget, admitting every waiter
	}{
		{"admitted", 2 * time.Second, true},
		{"shed", 20 * time.Millisecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{Budget: 1, MaxQueue: 8, QueueDeadline: tc.deadline})
			rel, err := c.Acquire(ClassRead)
			if err != nil {
				t.Fatalf("Acquire: %v", err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if r, err := c.Acquire(ClassRead); err == nil {
						r()
					} else if tc.release {
						t.Errorf("queued acquire: %v", err)
					}
				}()
				waitQueued(t, c, i+1)
			}
			if tc.release {
				rel()
			}
			wg.Wait()
			if !tc.release {
				rel()
			}
			if s := c.Snapshot(); s.Queued != 0 {
				t.Fatalf("%d waiters still queued", s.Queued)
			}
			if capacity, held := queueSlots(c); capacity < 3 || held != 0 {
				t.Fatalf("the queue keeps %d slots, %d of them referencing a waiter that left it; want at least the 3 its waiters used, all clear", capacity, held)
			}
		})
	}
}
