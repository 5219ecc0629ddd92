package maint

import (
	"slices"
	"sync"
)

// Pool runs maintenance jobs on a bounded set of worker goroutines. Submitted
// jobs queue without bound; at most the configured number run at once. A
// pool with zero workers runs every job on the goroutine that submits it,
// before Submit returns. Queued jobs start in submission order. All methods
// are safe for concurrent use.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []func()
	workers int // configured worker bound
	spawned int // workers currently alive
	active  int // jobs currently executing
	closed  bool
	yield   func(point string) // scheduling hook around jobs (nil = off)
}

// NewPool creates a pool with the given worker bound. workers < 1 creates
// the run-on-caller pool: nothing queues, so its Stats are all zero, and the
// yield hook is never consulted.
func NewPool(workers int) *Pool {
	if workers < 0 {
		workers = 0
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// SetYield installs a scheduling hook invoked by each worker immediately
// before and after it runs a job, with a label naming the point. The
// deterministic simulation harness uses it to perturb how maintenance work
// interleaves with foreground writers. Call it before the pool sees
// traffic; a nil hook disables the points.
func (p *Pool) SetYield(fn func(point string)) {
	p.mu.Lock()
	p.yield = fn
	p.mu.Unlock()
}

// Workers returns the pool's worker bound.
func (p *Pool) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.workers
}

// Stats reports the pool's queue depth, the jobs executing right now,
// and the worker bound — the gauges /debug/maintenance serves.
func (p *Pool) Stats() (queued, active, workers int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue), p.active, p.workers
}

// Submit enqueues a job. It returns false when the pool is closed (the job
// is dropped); callers that must not lose work should check the result.
// Workers are spawned lazily, up to the bound.
func (p *Pool) Submit(fn func()) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	if p.workers == 0 {
		p.mu.Unlock()
		fn()
		return true
	}
	p.queue = append(p.queue, fn)
	if p.spawned < p.workers && p.spawned < p.active+len(p.queue) {
		p.spawned++
		go p.worker()
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	return true
}

// worker drains the queue until the pool closes and no work remains.
func (p *Pool) worker() {
	p.mu.Lock()
	for {
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.spawned--
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		// slices.Delete shifts in place and clears the vacated tail slot,
		// so a popped func does not stay reachable from the backing array.
		fn := p.queue[0]
		p.queue = slices.Delete(p.queue, 0, 1)
		p.active++
		yield := p.yield
		p.mu.Unlock()

		if yield != nil {
			yield("maint.job.start")
		}
		fn()
		if yield != nil {
			yield("maint.job.done")
		}

		p.mu.Lock()
		p.active--
		p.cond.Broadcast()
	}
}

// Drain blocks until every job submitted so far has finished and the queue is
// empty. Jobs submitted while draining are waited for too (drain-to-idle).
func (p *Pool) Drain() {
	p.mu.Lock()
	for len(p.queue) > 0 || p.active > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Close drains the pool and stops its workers. Submit returns false
// afterwards. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	for len(p.queue) > 0 || p.active > 0 || p.spawned > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}
