package maint

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsAllJobs(t *testing.T) {
	p := NewPool(3)
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		if !p.Submit(func() { n.Add(1) }) {
			t.Fatal("submit refused on an open pool")
		}
	}
	p.Drain()
	if got := n.Load(); got != 100 {
		t.Fatalf("ran %d of 100 jobs", got)
	}
	p.Close()
	if p.Submit(func() {}) {
		t.Fatal("submit accepted on a closed pool")
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 2
	p := NewPool(workers)
	defer p.Close()
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		p.Submit(func() {
			defer wg.Done()
			c := cur.Add(1)
			for {
				old := peak.Load()
				if c <= old || peak.CompareAndSwap(old, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		})
	}
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent jobs, bound is %d", got, workers)
	}
}

func TestPoolDrainWaitsForInFlight(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	release := make(chan struct{})
	var done atomic.Bool
	p.Submit(func() {
		<-release
		done.Store(true)
	})
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	p.Drain()
	if !done.Load() {
		t.Fatal("Drain returned before the in-flight job finished")
	}
}

// TestPoolRunOnCaller pins the zero-worker pool: a job has run by the time
// Submit returns, nothing ever queues, and the merge gate is never
// consulted (it would block the submitting writer).
func TestPoolRunOnCaller(t *testing.T) {
	p := NewPool(0)
	p.SetGate(func() { t.Error("gate consulted by the run-on-caller pool") })
	ran := 0
	for _, kind := range []JobKind{JobFlush, JobMerge} {
		if !p.SubmitKind(kind, func() { ran++ }) {
			t.Fatal("submit refused on an open pool")
		}
	}
	if ran != 2 {
		t.Fatalf("%d of 2 jobs had run when Submit returned", ran)
	}
	if queued, active, workers := p.Stats(); queued+active+workers != 0 {
		t.Fatalf("stats = %d, %d, %d; want all zero", queued, active, workers)
	}
	p.Drain()
	p.Close()
	if p.Submit(func() {}) {
		t.Fatal("submit accepted on a closed pool")
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Submit(func() {})
	p.Close()
	p.Close()
}

func TestPoolGateOnlyMergeJobs(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var gated atomic.Int64
	p.SetGate(func() { gated.Add(1) })
	var flushes, merges atomic.Int64
	for i := 0; i < 5; i++ {
		p.Submit(func() { flushes.Add(1) })
		p.SubmitKind(JobMerge, func() { merges.Add(1) })
	}
	p.Drain()
	if flushes.Load() != 5 || merges.Load() != 5 {
		t.Fatalf("ran %d flushes, %d merges; want 5 each", flushes.Load(), merges.Load())
	}
	if got := gated.Load(); got != 5 {
		t.Fatalf("gate called %d times, want once per merge (5)", got)
	}
	// Clearing the gate stops gating.
	p.SetGate(nil)
	p.SubmitKind(JobMerge, func() {})
	p.Drain()
	if got := gated.Load(); got != 5 {
		t.Fatalf("gate called %d times after SetGate(nil), want still 5", got)
	}
}

func TestPoolPrefersFlushWhenGated(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	p.SetGate(func() {})
	// Occupy the single worker so the queue builds in a known order.
	block := make(chan struct{})
	p.Submit(func() { <-block })
	var order []string
	var mu sync.Mutex
	rec := func(s string) func() {
		return func() {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
	}
	p.SubmitKind(JobMerge, rec("merge1"))
	p.SubmitKind(JobMerge, rec("merge2"))
	p.Submit(rec("flush1"))
	close(block)
	p.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != "flush1" {
		t.Fatalf("dispatch order %v, want flush first under a gate", order)
	}
}
