package server

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/lsmstore"
)

// batchApplier is the slice of the DB the coalescer needs; tests substitute
// a controllable fake.
type batchApplier interface {
	ApplyBatchResults(muts []lsmstore.Mutation) ([]bool, error)
}

// coalescer folds concurrent single writes into ApplyBatch calls. Drain
// goroutines pull from a shared queue: each takes whatever writes
// accumulated while it was applying the previous batch — from any
// connection — and applies them as one batch, which the engine then groups
// per shard and applies with per-shard concurrency. Under light load
// batches are size 1 (no added latency beyond a channel hop); under
// concurrency the batch size grows exactly as fast as writes arrive.
//
// Several drainers run so that a batch parked on its commit-group fsync
// (group-commit WAL on the disk backend) does not stall the whole write
// path: while one batch's covering fsync is in flight, the others keep
// applying, and the WAL layer folds their commits into the next group.
// Concurrent batches introduce no new ordering hazards — requests are
// already handled concurrently (a connection's handler workers run its
// pipelined requests side by side), so concurrent single writes never had
// cross-request ordering guarantees.
type coalescer struct {
	db       batchApplier
	counters *metrics.ServerCounters
	maxBatch int
	workers  int
	ch       chan coalReq
	wg       sync.WaitGroup
}

type coalReq struct {
	mut lsmstore.Mutation
	res chan coalRes
	enq time.Time // submit time when the caller is tracing; zero otherwise
}

type coalRes struct {
	applied bool
	wait    time.Duration // queue time until a drainer picked the write up
	err     error
}

func newCoalescer(db batchApplier, counters *metrics.ServerCounters, maxBatch, workers int) *coalescer {
	queue := 4 * maxBatch // deeper than a batch, so the queue absorbs bursts
	if queue < 64 {
		queue = 64
	}
	if workers < 1 {
		workers = 1
	}
	c := &coalescer{
		db:       db,
		counters: counters,
		maxBatch: maxBatch,
		workers:  workers,
		ch:       make(chan coalReq, queue),
	}
	return c
}

// start launches the apply goroutines. The server calls it from Start, not
// New, so an unstarted or failed-to-start server leaks nothing.
func (c *coalescer) start() {
	c.wg.Add(c.workers)
	for i := 0; i < c.workers; i++ {
		go c.run()
	}
}

// apply submits one mutation and blocks until its batch lands, reporting
// whether the mutation took effect. With traced set it also reports how
// long the write sat queued before a drainer picked it up.
//
// The reply channel is pooled: a drainer sends on each request's channel
// exactly once and apply takes that one value, so the channel goes back
// empty and nothing else holds it.
func (c *coalescer) apply(m lsmstore.Mutation, traced bool) (bool, time.Duration, error) {
	res := coalResPool.Get().(chan coalRes)
	req := coalReq{mut: m, res: res}
	if traced {
		req.enq = time.Now()
	}
	c.ch <- req
	r := <-res
	coalResPool.Put(res)
	return r.applied, r.wait, r.err
}

// stop closes the queue and waits for the final batches. The caller must
// guarantee no apply is in flight (the server stops it only after every
// connection handler has exited).
func (c *coalescer) stop() {
	close(c.ch)
	c.wg.Wait()
}

func (c *coalescer) run() {
	defer c.wg.Done()
	reqs := make([]coalReq, 0, c.maxBatch)
	muts := make([]lsmstore.Mutation, 0, c.maxBatch)
	for first := range c.ch {
		reqs = append(reqs[:0], first)
		for len(reqs) < c.maxBatch {
			select {
			case r, ok := <-c.ch:
				if !ok {
					break
				}
				reqs = append(reqs, r)
				continue
			default:
			}
			break
		}
		muts = muts[:0]
		traced := false
		for _, r := range reqs {
			muts = append(muts, r.mut)
			traced = traced || !r.enq.IsZero()
		}
		var pickup time.Time
		if traced {
			pickup = time.Now()
		}
		applied, err := c.db.ApplyBatchResults(muts)
		if c.counters != nil {
			c.counters.CoalescedBatches.Add(1)
			c.counters.CoalescedWrites.Add(int64(len(reqs)))
		}
		for i, r := range reqs {
			ok := i < len(applied) && applied[i]
			res := coalRes{applied: ok, err: err}
			if !r.enq.IsZero() {
				res.wait = pickup.Sub(r.enq)
			}
			// A batch error is per shard, and shards are independent: a
			// mutation the engine reports applied landed durably even
			// though another shard's mutation failed, so its writer gets
			// success, not a stranger's error. (An applied=false entry in
			// an errored batch stays conservative: it may have failed, been
			// skipped, or merely been an ignored duplicate — the error is
			// returned and the client may retry safely.)
			if ok {
				res.err = nil
			}
			r.res <- res
		}
	}
}
