// Package lsmclient is the Go client for lsmserver: one pipelined TCP
// connection speaking the length-prefixed wire protocol, with timeouts and
// overload retries.
//
// Requests carry IDs, so many goroutines can share one Client — and its
// one connection — and their requests pipeline: each in-flight request
// waits only for its own response, which the server returns in completion
// order. A connection that breaks fails its in-flight requests and is
// redialed transparently on next use. A caller that wants more
// connections dials more clients.
//
//	c, err := lsmclient.Dial("127.0.0.1:4150")
//	if err != nil { ... }
//	defer c.Close()
//	if err := c.Upsert(pk, record); err != nil { ... }
//	res, err := c.SecondaryQuery("user", lo, hi, lsmstore.QueryOptions{
//		Validation: lsmstore.TimestampValidation,
//	})
//
// Server-side failures come back as typed errors: lsmstore.ErrClosed,
// lsmstore.ErrUnknownIndex and ErrOverloaded are recognized with
// errors.Is; everything else is a *ServerError.
//
// Overload responses (CodeOverloaded) are retried automatically with
// capped exponential backoff and full jitter, up to Options.RetryLimit.
// ApplyBatch sends a list of mutations in one round trip.
package lsmclient

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/lsmstore"
)

// Options configures a Client.
type Options struct {
	// Addr is the server's TCP address (required).
	Addr string
	// RequestTimeout bounds each request round trip (default 30s; < 0
	// disables). A timed-out request fails with ErrTimeout; its response,
	// if it ever arrives, is discarded.
	RequestTimeout time.Duration
	// RetryLimit caps the retries after a CodeOverloaded response before
	// the error surfaces to the caller (0 = the default of 4; negative
	// disables retries). Only overload errors are retried; bad requests,
	// broken connections and timeouts fail immediately.
	RetryLimit int
	// BackoffBase is the first retry's backoff window (0 = 1ms). Each
	// retry doubles the window, capped at BackoffCap; the actual sleep is
	// uniform in [0, window) — capped exponential backoff, full jitter.
	BackoffBase time.Duration
	// BackoffCap caps the backoff window (0 = 250ms).
	BackoffCap time.Duration
}

const (
	dialTimeout           = 5 * time.Second // bounds each connection attempt
	defaultRequestTimeout = 30 * time.Second
	defaultRetryLimit     = 4
	defaultBackoffBase    = time.Millisecond
	defaultBackoffCap     = 250 * time.Millisecond
)

// ErrTimeout reports a request that exceeded Options.RequestTimeout.
var ErrTimeout = errors.New("lsmclient: request timed out")

// ErrClientClosed reports use of a Client after Close.
var ErrClientClosed = errors.New("lsmclient: client is closed")

// ErrOverloaded reports a request the server shed (CodeOverloaded) that
// was still failing after the retry budget. Back off before trying again.
var ErrOverloaded = errors.New("lsmclient: server overloaded")

// ServerError is a typed failure the server reported for one request.
type ServerError struct {
	Code string // the wire error code name, e.g. "bad-request"
	Msg  string
}

// Error implements the error interface.
func (e *ServerError) Error() string {
	return fmt.Sprintf("lsmclient: server error %s: %s", e.Code, e.Msg)
}

// Client is one pipelining connection to one lsmserver, redialed when it
// breaks. All methods are safe for concurrent use.
type Client struct {
	opts   Options
	mu     sync.Mutex // guards cn (redial swaps)
	cn     *conn
	nextID atomic.Uint64
	closed atomic.Bool
}

// Dial connects to an lsmserver with default options.
func Dial(addr string) (*Client, error) {
	return DialOptions(Options{Addr: addr})
}

// DialOptions connects with explicit options. The connection is
// established eagerly so a bad address fails here, not on first use.
func DialOptions(opts Options) (*Client, error) {
	if opts.Addr == "" {
		return nil, errors.New("lsmclient: Options.Addr is required")
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = defaultRequestTimeout
	}
	if opts.RetryLimit == 0 {
		opts.RetryLimit = defaultRetryLimit
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = defaultBackoffBase
	}
	if opts.BackoffCap <= 0 {
		opts.BackoffCap = defaultBackoffCap
	}
	if opts.BackoffCap < opts.BackoffBase {
		opts.BackoffCap = opts.BackoffBase
	}
	c := &Client{opts: opts}
	cn, err := c.dialConn()
	if err != nil {
		return nil, err
	}
	c.cn = cn
	return c, nil
}

// Close closes the connection. In-flight requests fail.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.mu.Lock()
	cn := c.cn
	c.mu.Unlock()
	cn.close(ErrClientClosed)
	return nil
}

// --- operations ---------------------------------------------------------

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	_, err := c.do(wire.Request{Op: wire.OpPing}, wire.KindOK)
	return err
}

// Get returns the record under pk and whether it exists. The record is
// the caller's to keep, capacity-limited so an append copies it. An
// answer of at most 2 KiB (the record and a few bytes of framing) is
// carved, with other small answers, from its connection's 16 KiB chunk, so
// a GET allocates nothing of its own, and keeping the record keeps that one
// chunk alive; a larger record keeps only its own bytes.
func (c *Client) Get(pk []byte) ([]byte, bool, error) {
	resp, err := c.do(wire.Request{Op: wire.OpGet, Key: pk}, wire.KindValue)
	if err != nil {
		return nil, false, err
	}
	return resp.Value, resp.Found, nil
}

// Upsert inserts or replaces the record under pk.
func (c *Client) Upsert(pk, record []byte) error {
	_, err := c.do(wire.Request{Op: wire.OpUpsert, Key: pk, Value: record}, wire.KindOK)
	return err
}

// Insert adds a record; it reports false when the key already exists.
func (c *Client) Insert(pk, record []byte) (bool, error) {
	resp, err := c.do(wire.Request{Op: wire.OpInsert, Key: pk, Value: record}, wire.KindApplied)
	if err != nil {
		return false, err
	}
	return resp.Applied, nil
}

// Delete removes the record under pk; it reports false when absent.
func (c *Client) Delete(pk []byte) (bool, error) {
	resp, err := c.do(wire.Request{Op: wire.OpDelete, Key: pk}, wire.KindApplied)
	if err != nil {
		return false, err
	}
	return resp.Applied, nil
}

// ApplyBatch applies a batch of mutations in one round trip and reports,
// per mutation, whether it took effect (matching DB.ApplyBatchResults).
// The report is the caller's to keep: the server encodes it from the
// store's recycled report (DB.ApplyBatchWith), and the client carves a
// report of up to 512 flags from its connection's 4 KiB flag chunk, so the
// round trip allocates nothing of its own, and keeping the report keeps
// that one chunk alive.
func (c *Client) ApplyBatch(muts []lsmstore.Mutation) ([]bool, error) {
	for _, m := range muts {
		// The server's decoder treats an out-of-range op as a corrupt frame
		// and hangs up on every request pipelined behind it.
		if m.Op > lsmstore.OpDelete {
			return nil, fmt.Errorf("lsmclient: unknown mutation op %d", m.Op)
		}
	}
	resp, err := c.do(wire.Request{Op: wire.OpApplyBatch, Muts: muts}, wire.KindBatch)
	if err != nil {
		return nil, err
	}
	applied := resp.AppliedBatch
	if applied == nil {
		applied = make([]bool, len(muts)) // empty batches decode as nil
	}
	return applied, nil
}

// SecondaryQuery runs a range query lo <= secondary key <= hi on the
// named index. The result is the caller's: its records and keys are
// capacity-limited slices of one backing array. An answer of up to 2 KiB
// is carved from its connection's 16 KiB chunk, so keeping any part of it
// keeps at most that chunk alive; a larger one keeps only its own bytes.
func (c *Client) SecondaryQuery(index string, lo, hi []byte, opts lsmstore.QueryOptions) (*lsmstore.QueryResult, error) {
	resp, err := c.do(wire.Request{
		Op:         wire.OpSecondaryQuery,
		Index:      index,
		Lo:         lo,
		Hi:         hi,
		Validation: uint8(opts.Validation),
		IndexOnly:  opts.IndexOnly,
		Limit:      int64(opts.Limit),
	}, wire.KindQuery)
	if err != nil {
		return nil, err
	}
	return &lsmstore.QueryResult{Records: resp.Records, Keys: resp.Keys}, nil
}

// FilterScan returns records whose filter key lies in [lo, hi], in
// primary-key order, capped at limit (0 = all). As with SecondaryQuery, a
// kept record keeps at most one 16 KiB connection chunk alive, or only its
// own answer's bytes when the answer is over 2 KiB.
func (c *Client) FilterScan(lo, hi int64, limit int) ([]lsmstore.Record, error) {
	resp, err := c.do(wire.Request{
		Op: wire.OpFilterScan, FilterLo: lo, FilterHi: hi, Limit: int64(limit),
	}, wire.KindScan)
	if err != nil {
		return nil, err
	}
	return resp.Records, nil
}

// Stats fetches the server's engine statistics snapshot.
func (c *Client) Stats() (lsmstore.Stats, error) {
	resp, err := c.do(wire.Request{Op: wire.OpStats}, wire.KindStats)
	if err != nil {
		return lsmstore.Stats{}, err
	}
	var st lsmstore.Stats
	if err := json.Unmarshal(resp.Stats, &st); err != nil {
		return lsmstore.Stats{}, fmt.Errorf("lsmclient: bad stats payload: %w", err)
	}
	return st, nil
}

// Flush forces the server's store to flush all memory components.
func (c *Client) Flush() error {
	_, err := c.do(wire.Request{Op: wire.OpFlush}, wire.KindOK)
	return err
}

// --- transport ----------------------------------------------------------

// do sends one request, retrying overload errors with capped exponential
// backoff and full jitter.
func (c *Client) do(req wire.Request, want wire.Kind) (wire.Response, error) {
	if c.closed.Load() {
		return wire.Response{}, ErrClientClosed
	}
	for attempt := 0; ; attempt++ {
		resp, err := c.doOnce(req, want)
		if err == nil || attempt >= c.opts.RetryLimit || !retryableError(err) {
			return resp, err
		}
		time.Sleep(backoffDelay(attempt, c.opts.BackoffBase, c.opts.BackoffCap, randDelay))
		if c.closed.Load() {
			return wire.Response{}, ErrClientClosed
		}
	}
}

// retryableError reports whether the failure is an overload signal worth
// retrying. Bad requests, closed stores, timeouts and broken connections
// are not — retrying those wastes the server's time or the caller's.
func retryableError(err error) bool {
	return errors.Is(err, ErrOverloaded)
}

// backoffDelay computes the attempt's sleep: a window of base<<attempt
// capped at cap, full jitter via rnd (uniform draw in [0, window)). A
// random sleep in the full window desynchronizes retrying clients — the
// retry herd arrives spread out instead of in waves.
func backoffDelay(attempt int, base, cap time.Duration, rnd func(int64) int64) time.Duration {
	window := base
	for i := 0; i < attempt && window < cap; i++ {
		window *= 2
	}
	if window > cap {
		window = cap
	}
	if window <= 0 {
		return 0
	}
	return time.Duration(rnd(int64(window)))
}

// randDelay is backoffDelay's production jitter source.
func randDelay(n int64) int64 {
	return rand.Int63n(n)
}

// doOnce sends one request attempt on the connection and waits for its
// response, enforcing the request timeout and mapping error frames to
// typed errors. Each attempt gets a fresh request ID so an abandoned
// attempt's late response can never be routed to its retry. The attempt's
// channel and timer come from a pooled call, which goes back to the pool
// only on the two paths where no other goroutine can still reach it (see
// call).
func (c *Client) doOnce(req wire.Request, want wire.Kind) (wire.Response, error) {
	req.ID = c.nextID.Add(1)
	cn, err := c.conn()
	if err != nil {
		return wire.Response{}, err
	}
	cl := callPool.Get().(*call)
	if err := cn.send(req, cl.ch); err != nil {
		return wire.Response{}, err // the call is dropped: conn.close may close its channel
	}
	var timeout <-chan time.Time
	if c.opts.RequestTimeout > 0 {
		timeout = cl.arm(c.opts.RequestTimeout)
	}
	select {
	case res, ok := <-cl.ch:
		if timeout != nil {
			cl.timer.Stop()
		}
		if !ok {
			return wire.Response{}, cn.lastError() // closed by conn.close: dropped
		}
		callPool.Put(cl) // readLoop sends once, after removing the pending entry
		if res.Kind == wire.KindError {
			return wire.Response{}, mapServerError(res)
		}
		if res.Kind != want {
			return wire.Response{}, fmt.Errorf("lsmclient: server answered %s to a %s request", res.Kind, req.Op)
		}
		return res, nil
	case <-timeout:
		if cn.abandon(req.ID) {
			callPool.Put(cl) // nobody else holds the channel any more
		}
		// Otherwise readLoop (or conn.close) got there first and will still
		// send on (or close) the channel: the call is dropped.
		return wire.Response{}, fmt.Errorf("%w: %s after %s", ErrTimeout, req.Op, c.opts.RequestTimeout)
	}
}

// mapServerError converts an error frame into lsmstore sentinels where
// possible so errors.Is works across the network boundary.
func mapServerError(res wire.Response) error {
	switch res.Code {
	case wire.CodeClosed:
		return fmt.Errorf("%w (remote: %s)", lsmstore.ErrClosed, res.Msg)
	case wire.CodeUnknownIndex:
		return fmt.Errorf("%w (remote: %s)", lsmstore.ErrUnknownIndex, res.Msg)
	case wire.CodeOverloaded:
		return fmt.Errorf("%w (remote: %s)", ErrOverloaded, res.Msg)
	}
	return &ServerError{Code: res.Code.String(), Msg: res.Msg}
}

// conn returns the client's connection, redialing it if it broke.
func (c *Client) conn() (*conn, error) {
	c.mu.Lock()
	cn := c.cn
	c.mu.Unlock()
	if !cn.broken() {
		return cn, nil
	}
	fresh, err := c.dialConn()
	if err != nil {
		return nil, err
	}
	// Other goroutines may have redialed concurrently: the first dial to
	// replace the broken connection wins, and every losing dial is closed.
	c.mu.Lock()
	if cur := c.cn; cur != cn && !cur.broken() {
		c.mu.Unlock()
		fresh.close(nil)
		return cur, nil
	}
	c.cn = fresh
	c.mu.Unlock()
	if c.closed.Load() { // lost a race with Close
		fresh.close(ErrClientClosed)
		return nil, ErrClientClosed
	}
	return fresh, nil
}

func (c *Client) dialConn() (*conn, error) {
	nc, err := net.DialTimeout("tcp", c.opts.Addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	cn := &conn{
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 64<<10),
		pending: make(map[uint64]chan wire.Response),
	}
	go cn.readLoop()
	return cn, nil
}

// maxKeptFrame caps the request encode buffer a connection keeps between
// requests: one huge batch does not pin its buffer for every small request
// after it (the server's maxPooledFrame rule).
const maxKeptFrame = 64 << 10

// conn is one connection: a locked write path and a reader
// goroutine routing responses to their waiters by request ID.
type conn struct {
	nc net.Conn

	wmu  sync.Mutex // serializes frame writes; guards bw and wbuf
	bw   *bufio.Writer
	wbuf []byte // request encode buffer, reused across requests

	mu      sync.Mutex
	pending map[uint64]chan wire.Response
	err     error // sticky: set once the connection breaks
}

// send registers the request's response channel and writes the frame.
func (c *conn) send(req wire.Request, ch chan wire.Response) error {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.pending[req.ID] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	c.wbuf = wire.AppendRequest(c.wbuf[:0], req)
	err := wire.WriteFrame(c.bw, c.wbuf)
	if err == nil {
		err = c.bw.Flush()
	}
	if cap(c.wbuf) > maxKeptFrame {
		c.wbuf = nil
	}
	c.wmu.Unlock()
	if err != nil {
		c.close(fmt.Errorf("lsmclient: write: %w", err))
		return err
	}
	return nil
}

// abandon drops a timed-out request's waiter; a late response is ignored.
// It reports whether the waiter was still registered: false means readLoop
// or close already took it and will send on or close its channel.
func (c *conn) abandon(id uint64) bool {
	c.mu.Lock()
	_, ok := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return ok
}

func (c *conn) readLoop() {
	// Reading through a buffer makes a response one read(2), not two
	// (length prefix, then payload).
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var (
		buf []byte
		dec wire.ResponseDecoder // small answers share its chunks
	)
	for {
		frame, err := wire.ReadFrame(br, buf, wire.MaxFrame)
		if err != nil {
			c.close(fmt.Errorf("lsmclient: connection lost: %w", err))
			return
		}
		buf = frame[:cap(frame)]
		resp, err := dec.Decode(frame)
		if err != nil {
			c.close(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.ID]
		if ok {
			delete(c.pending, resp.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- resp
		}
	}
}

// close marks the connection broken (keeping the first cause), fails all
// pending requests, and closes the socket.
func (c *conn) close(cause error) {
	c.mu.Lock()
	if c.err == nil {
		if cause == nil {
			cause = errors.New("lsmclient: connection closed")
		}
		c.err = cause
	}
	pending := c.pending
	c.pending = make(map[uint64]chan wire.Response)
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
	c.nc.Close()
}

func (c *conn) broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

func (c *conn) lastError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		return errors.New("lsmclient: request dropped")
	}
	return c.err
}
