package maint

import (
	"slices"
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
// Submit returns and nothing ever queues.
func TestPoolRunOnCaller(t *testing.T) {
	p := NewPool(0)
	ran := 0
	for i := 0; i < 2; i++ {
		if !p.Submit(func() { ran++ }) {
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

// TestPoolRunsInSubmissionOrder pins FIFO dispatch: with one worker, queued
// jobs run in the order they were submitted.
func TestPoolRunsInSubmissionOrder(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	// Occupy the single worker so the queue builds in a known order.
	block := make(chan struct{})
	p.Submit(func() { <-block })
	var order []int
	for i := 0; i < 3; i++ {
		p.Submit(func() { order = append(order, i) })
	}
	close(block)
	p.Drain()
	if !slices.Equal(order, []int{0, 1, 2}) {
		t.Fatalf("dispatch order %v, want [0 1 2]", order)
	}
}
