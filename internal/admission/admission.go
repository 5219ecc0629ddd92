package admission

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Class classifies a request for weighting. Weights approximate relative
// engine cost; the table below is deliberately coarse — the budget
// bounds concurrency, not bytes.
type Class uint8

// Request classes.
const (
	ClassRead Class = iota
	ClassWrite
	ClassBatch
	ClassQuery
	ClassScan
	NumClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassRead:
		return "read"
	case ClassWrite:
		return "write"
	case ClassBatch:
		return "batch"
	case ClassQuery:
		return "query"
	case ClassScan:
		return "scan"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// weights is the per-class cost approximation. A weight above the budget
// is clamped to it (Controller.Weight).
var weights = [NumClasses]int64{
	ClassRead:  1,
	ClassWrite: 1,
	ClassBatch: 4,
	ClassQuery: 2,
	ClassScan:  4,
}

// Errors returned by Acquire. The server maps them onto the wire codes
// (CodeOverloaded, CodeShuttingDown).
var (
	// ErrOverloaded reports a shed request: the budget and queue are full,
	// or the queue deadline expired before a slot freed up.
	ErrOverloaded = errors.New("admission: overloaded")
	// ErrClosed reports an Acquire against a closed controller.
	ErrClosed = errors.New("admission: controller closed")
)

// Config configures a Controller.
type Config struct {
	// Budget is the total weighted in-flight budget (required, > 0).
	Budget int64
	// MaxQueue caps the FIFO wait queue. 0 means 2×Budget; negative
	// disables queueing entirely (over-budget requests shed immediately).
	MaxQueue int
	// QueueDeadline is the longest a request may wait queued before it is
	// shed. 0 means the 2ms default — shedding must stay fast enough that
	// a shed round trip is cheap for the client to retry.
	QueueDeadline time.Duration
}

const (
	defaultQueueDeadline = 2 * time.Millisecond
)

// waiter states. Transitions happen under Controller.mu; the terminal
// state is published to the waiting goroutine by close(ready).
const (
	stateQueued = iota
	stateAdmitted
	stateShed
)

type waiter struct {
	weight int64
	ready  chan struct{} // closed on admit or shed
	state  int
	err    error // set when state == stateShed
}

// Controller is the server-wide admission controller. All methods are
// safe for concurrent use.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	inflight int64
	queue    []*waiter
	closed   bool

	admitted          atomic.Int64
	admittedAfterWait atomic.Int64
	shedQueueFull     atomic.Int64
	shedDeadline      atomic.Int64

	// shedHist records the fail-fast latency of shed requests (Acquire
	// entry to shed), the bound the overload acceptance criteria pin.
	shedHist obs.Hist
}

// New builds a controller. Budget must be positive.
func New(cfg Config) *Controller {
	if cfg.Budget <= 0 {
		cfg.Budget = 1
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = int(2 * cfg.Budget)
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.QueueDeadline <= 0 {
		cfg.QueueDeadline = defaultQueueDeadline
	}
	return &Controller{cfg: cfg}
}

// Weight reports the weight of a class, clamped to the budget.
func (c *Controller) Weight(class Class) int64 {
	if class >= NumClasses {
		return 1
	}
	return min(weights[class], c.cfg.Budget)
}

// Acquire admits one request of the given class, blocking in the FIFO
// queue up to the queue deadline when the budget is full. On success it
// returns the release function the caller must invoke exactly once when
// the request finishes. On failure the request was shed: ErrOverloaded
// or ErrClosed.
func (c *Controller) Acquire(class Class) (func(), error) {
	w := c.Weight(class)
	start := time.Now()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	// Fast path: budget available and nobody queued ahead (FIFO).
	if len(c.queue) == 0 && c.inflight+w <= c.cfg.Budget {
		c.inflight += w
		c.mu.Unlock()
		c.admitted.Add(1)
		return c.releaseFunc(w), nil
	}
	if len(c.queue) >= c.cfg.MaxQueue {
		c.mu.Unlock()
		c.shedQueueFull.Add(1)
		c.shedHist.Record(time.Since(start))
		return nil, fmt.Errorf("%w: admission queue full", ErrOverloaded)
	}
	wtr := &waiter{weight: w, ready: make(chan struct{})}
	c.queue = append(c.queue, wtr)
	c.mu.Unlock()

	timer := time.NewTimer(c.cfg.QueueDeadline)
	defer timer.Stop()
	select {
	case <-wtr.ready:
		// Terminal state was written under mu before the close.
		if wtr.state == stateShed {
			c.shedHist.Record(time.Since(start))
			return nil, wtr.err
		}
		c.admittedAfterWait.Add(1)
		return c.releaseFunc(w), nil
	case <-timer.C:
		c.mu.Lock()
		if wtr.state == stateQueued {
			c.removeWaiterLocked(wtr)
			// This waiter may have been all that held back the ones
			// queued behind it.
			c.grantLocked()
			c.mu.Unlock()
			c.shedDeadline.Add(1)
			c.shedHist.Record(time.Since(start))
			return nil, fmt.Errorf("%w: queue deadline (%s) expired", ErrOverloaded, c.cfg.QueueDeadline)
		}
		// The grant (or Close) raced the deadline; honor it.
		state, err := wtr.state, wtr.err
		c.mu.Unlock()
		if state == stateShed {
			c.shedHist.Record(time.Since(start))
			return nil, err
		}
		c.admittedAfterWait.Add(1)
		return c.releaseFunc(w), nil
	}
}

// releaseFunc builds the idempotence-guarded release closure for one
// admitted request.
func (c *Controller) releaseFunc(w int64) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.inflight -= w
			c.grantLocked()
			c.mu.Unlock()
		})
	}
}

// grantLocked admits queued waiters in FIFO order while the budget has
// room. Grants are channel closes — nothing here blocks under mu. The
// admitted prefix leaves the queue in one slices.Delete, which clears the
// vacated slots: the queue keeps its capacity but no admitted waiter.
func (c *Controller) grantLocked() {
	n := 0
	for _, w := range c.queue {
		if c.inflight+w.weight > c.cfg.Budget {
			break
		}
		c.inflight += w.weight
		c.admitted.Add(1)
		w.state = stateAdmitted
		close(w.ready)
		n++
	}
	c.queue = slices.Delete(c.queue, 0, n)
}

// removeWaiterLocked drops a waiter from the queue (deadline expiry).
func (c *Controller) removeWaiterLocked(w *waiter) {
	if i := slices.Index(c.queue, w); i >= 0 {
		c.queue = slices.Delete(c.queue, i, i+1)
		w.state = stateShed
	}
}

// Close sheds every queued waiter with ErrClosed and fails all future
// Acquires. Releases of already-admitted requests remain valid.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	queue := c.queue
	c.queue = nil
	for _, w := range queue {
		w.state = stateShed
		w.err = ErrClosed
		close(w.ready)
	}
	c.mu.Unlock()
}

// Snapshot is a point-in-time view of the controller, served on /stats
// and /metrics.
type Snapshot struct {
	Budget            int64 `json:"budget"`
	InFlight          int64 `json:"in_flight"`
	Queued            int   `json:"queued"`
	Admitted          int64 `json:"admitted"`
	AdmittedAfterWait int64 `json:"admitted_after_wait"`
	ShedQueueFull     int64 `json:"shed_queue_full"`
	ShedDeadline      int64 `json:"shed_deadline"`
}

// Shed is the total sheds across every cause.
func (s Snapshot) Shed() int64 {
	return s.ShedQueueFull + s.ShedDeadline
}

// Snapshot captures the controller's current state.
func (c *Controller) Snapshot() Snapshot {
	s := Snapshot{
		Admitted:          c.admitted.Load(),
		AdmittedAfterWait: c.admittedAfterWait.Load(),
		ShedQueueFull:     c.shedQueueFull.Load(),
		ShedDeadline:      c.shedDeadline.Load(),
	}
	c.mu.Lock()
	s.Budget = c.cfg.Budget
	s.InFlight = c.inflight
	s.Queued = len(c.queue)
	c.mu.Unlock()
	return s
}

// ShedHist snapshots the shed fail-fast latency histogram.
func (c *Controller) ShedHist() obs.HistSnapshot { return c.shedHist.Snapshot() }
