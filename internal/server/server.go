package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/lsmstore"
)

// Config configures a Server.
type Config struct {
	// DB is the store to serve. The server does not Open or Close it; the
	// caller owns its lifecycle.
	DB *lsmstore.DB
	// Addr is the TCP listen address (e.g. "127.0.0.1:4150"; required).
	Addr string
	// HTTPAddr is the observability sidecar's listen address, serving
	// GET /healthz and GET /stats. Empty disables the sidecar.
	HTTPAddr string
	// MaxInFlight bounds the requests a single connection may have
	// executing at once. When a client pipelines past it, the server
	// stops reading that connection until responses drain — backpressure
	// by TCP flow control. 0 means the default of 128.
	MaxInFlight int
	// SlowRequestThreshold is the server-side latency at or above which a
	// request lands in the 128-entry slow-request ring served at
	// /debug/slow. 0 means the 100ms default; negative disables the slow
	// log.
	SlowRequestThreshold time.Duration
	// AdmissionBudget enables server-wide admission control: the total
	// weighted in-flight budget across every connection (see
	// internal/admission for the per-class weights). 0 disables admission
	// control — the only bound is then the per-connection MaxInFlight.
	AdmissionBudget int64
	// AdmissionQueue caps the admission FIFO wait queue (0 = 2×budget,
	// negative = no queue: over-budget requests shed immediately). A
	// request still queued after 2ms is shed.
	AdmissionQueue int
	// DisableObservability turns off the per-op latency histograms, the
	// request-stage tracing and the slow-request log. /metrics then
	// serves counters only.
	DisableObservability bool
	// EnablePprof registers net/http/pprof handlers on the HTTP sidecar
	// under /debug/pprof/.
	EnablePprof bool
}

const (
	defaultMaxInFlight   = 128
	defaultSlowThreshold = 100 * time.Millisecond
)

// Server serves a DB over the wire protocol: one TCP listener, a
// reader/writer goroutine pair per connection, pipelined out-of-order
// responses, and an optional HTTP sidecar.
type Server struct {
	cfg      Config
	db       *lsmstore.DB
	counters *metrics.ServerCounters
	obs      *obs.Registry         // nil when observability is disabled
	slow     *obs.SlowLog          // nil when the slow log is disabled
	adm      *admission.Controller // nil when admission control is disabled

	ln       net.Listener
	acceptWg sync.WaitGroup
	connWg   sync.WaitGroup

	mu       sync.Mutex
	conns    map[*conn]struct{}
	started  bool
	stopping bool
	stopped  chan struct{} // closed when a stop (Shutdown or Kill) completes

	http httpSidecar
}

// New builds a server for the config. Call Start to begin serving.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	if cfg.Addr == "" {
		return nil, errors.New("server: Config.Addr is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	s := &Server{
		cfg:      cfg,
		db:       cfg.DB,
		counters: &metrics.ServerCounters{},
		conns:    make(map[*conn]struct{}),
		stopped:  make(chan struct{}),
	}
	if !cfg.DisableObservability {
		s.obs = obs.NewRegistry()
		if cfg.SlowRequestThreshold >= 0 {
			thr := cfg.SlowRequestThreshold
			if thr == 0 {
				thr = defaultSlowThreshold
			}
			s.slow = obs.NewSlowLog(0, thr) // the default ring: 128 entries
		}
	}
	if cfg.AdmissionBudget > 0 {
		s.adm = admission.New(admission.Config{
			Budget:   cfg.AdmissionBudget,
			MaxQueue: cfg.AdmissionQueue,
		})
	}
	return s, nil
}

// Counters exposes the server's event counters (also served by /stats).
func (s *Server) Counters() *metrics.ServerCounters { return s.counters }

// Observability exposes the per-op and per-stage latency registry (nil
// when Config.DisableObservability is set).
func (s *Server) Observability() *obs.Registry { return s.obs }

// SlowLog exposes the slow-request ring (nil when disabled).
func (s *Server) SlowLog() *obs.SlowLog { return s.slow }

// Admission exposes the admission controller (nil when disabled).
func (s *Server) Admission() *admission.Controller { return s.adm }

// Start binds the listeners and begins serving in the background.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("server: already started")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	if s.cfg.HTTPAddr != "" {
		if err := s.http.start(s.cfg.HTTPAddr, s); err != nil {
			//lsm:allow-discard unwinding a failed startup; the sidecar error is the one worth returning
			ln.Close()
			return err
		}
	}
	s.ln = ln
	s.started = true
	s.acceptWg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the TCP listener address (nil before Start).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// HTTPAddr returns the sidecar's listener address (nil when disabled or
// before Start).
func (s *Server) HTTPAddr() net.Addr { return s.http.addr() }

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.acceptWg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed by Shutdown/Kill
		}
		c := &conn{
			srv:  s,
			nc:   nc,
			out:  make(chan outFrame, s.cfg.MaxInFlight),
			sem:  make(chan struct{}, s.cfg.MaxInFlight),
			work: make(chan job),
		}
		s.mu.Lock()
		if s.stopping {
			s.mu.Unlock()
			//lsm:allow-discard refusing a connection that raced the shutdown; its close error is of no use
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.counters.Connections.Add(1)
		s.counters.ActiveConns.Add(1)
		s.connWg.Add(1)
		go c.serve()
	}
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.counters.ActiveConns.Add(-1)
}

func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopping
}

// beginStop flips the server into stopping state. It reports false — and
// waits for the in-progress stop — when another stop already ran.
func (s *Server) beginStop() bool {
	s.mu.Lock()
	if !s.started || s.stopping {
		stopped := s.stopped
		started := s.started
		s.mu.Unlock()
		if started {
			<-stopped
		}
		return false
	}
	s.stopping = true
	s.mu.Unlock()
	return true
}

// Shutdown gracefully drains the server: it stops accepting connections
// and reading new requests, waits for every in-flight request to finish
// and its response to flush, then closes the connections and the
// listeners. If ctx expires first, remaining connections are closed
// abruptly; Shutdown still waits for their handlers before returning
// ctx's error. The DB is left open — the caller owns it.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.beginStop() {
		return nil
	}
	defer close(s.stopped)
	//lsm:allow-discard teardown: the listener is being discarded either way
	s.ln.Close()
	s.http.stop()
	s.stopOverload()
	// Unblock every reader: the deadline fails the blocking ReadFrame,
	// and the drain flag stops readers that raced past it.
	s.mu.Lock()
	for c := range s.conns {
		//lsm:allow-discard the deadline is a wake-up signal; it can only fail on a conn that is already dead, which is the goal
		c.nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.acceptWg.Wait()
		s.connWg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			//lsm:allow-discard drain budget expired; connections are cut, their close errors are noise
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// Kill stops the server abruptly: listeners and connections close
// immediately, responses in flight are dropped, nothing drains. The DB is
// left untouched, so tests can treat a killed server's directory exactly
// like a crashed process image. Handlers already executing finish against
// the live DB before Kill returns.
func (s *Server) Kill() {
	if !s.beginStop() {
		return
	}
	defer close(s.stopped)
	//lsm:allow-discard Kill is the ungraceful path; everything is discarded
	s.ln.Close()
	s.http.stop()
	s.stopOverload()
	s.mu.Lock()
	for c := range s.conns {
		//lsm:allow-discard Kill is the ungraceful path; everything is discarded
		c.nc.Close()
	}
	s.mu.Unlock()
	s.acceptWg.Wait()
	s.connWg.Wait()
}

// stopOverload tears down the overload-protection layer on either stop
// path: queued admission waiters shed with ErrClosed (the client sees
// CodeShuttingDown).
func (s *Server) stopOverload() {
	if s.adm != nil {
		s.adm.Close()
	}
}

// frameBufPool recycles response frame encode buffers: a frame lives from
// the handler's send to the writer's flush, after which the buffer goes
// back to the pool instead of the garbage collector — the per-response
// allocation was measurable on the pipelined hot path. Buffers grown past
// maxPooledFrame by one big query/scan response are dropped rather than
// pinned for every small response that follows.
const maxPooledFrame = 64 << 10

var frameBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// reqBuf is one request's receive memory: the frame buffer and the
// mutation list an APPLY_BATCH is decoded into.
type reqBuf struct {
	frame []byte
	muts  []wire.Mutation
}

// reqBufPool recycles request buffers. Each request reads its frame into a
// pooled buffer and decodes it in place (wire.DecodeRequestInto), its
// mutations into the buffer's list, so no key or record leaves the receive
// buffer and a batch allocates no list; the handler returns the buffer
// once the request is done. Nothing is cloned first: reads and writes
// alike are finished with the bytes by then, because the engine copies
// what it keeps (see serveRequest).
var reqBufPool = sync.Pool{New: func() any { return &reqBuf{frame: make([]byte, 0, 4096)} }}

// maxPooledMuts bounds the mutation list a pooled request buffer keeps, in
// mutations: about maxPooledFrame's worth of list.
const maxPooledMuts = 1 << 10

// putReqBuf clears a request buffer's mutation list, which points into the
// frame, or drops it when one huge batch grew it past maxPooledMuts, and
// returns the buffer to the pool unless one oversized frame grew it past
// the cap worth pinning.
func putReqBuf(rb *reqBuf) {
	if cap(rb.muts) > maxPooledMuts {
		rb.muts = nil
	}
	clear(rb.muts[:cap(rb.muts)])
	rb.muts = rb.muts[:0]
	if cap(rb.frame) <= maxPooledFrame {
		reqBufPool.Put(rb)
	}
}

// trace accumulates one request's stage timings as it moves through the
// pipeline: decode on the read goroutine, engine on the handler
// goroutine, encode at send, write on the writer goroutine.
// A zero trace (start.IsZero()) marks an untraced frame and records
// nothing. It travels by value — tracing allocates nothing per request.
//
// start is the request's one time.Now; every later stamp is an offset
// from it read with time.Since, which reads only the monotonic clock and
// costs half a time.Now — at a few microseconds a request, the clock reads
// are most of what tracing costs.
type trace struct {
	op     obs.Op
	id     uint64
	start  time.Time     // frame fully received
	at     time.Duration // since start: when the stage under way began
	decode time.Duration
	engine time.Duration
	encode time.Duration
}

// lap ends the stage that began at tr.at, returning its length, and starts
// the next one now. After the encode lap, at is when the response was
// handed to the writer.
func (tr *trace) lap() time.Duration {
	now := time.Since(tr.start)
	d := now - tr.at
	tr.at = now
	return d
}

// outFrame is one encoded response frame moving to the writer, with its
// request's trace riding along so the write stage and the total can be
// recorded once the frame reaches the socket.
type outFrame struct {
	bp *[]byte
	tr trace
}

// job is one decoded request on its way from the reader to a handler
// worker, with the pooled receive buffer its byte fields and its mutation
// list alias.
type job struct {
	req wire.Request
	rb  *reqBuf
	tr  trace
}

// conn is one client connection: a reader goroutine decoding requests and
// handing them to the connection's handler workers (in flight bounded by
// sem), and a writer goroutine serializing response frames.
type conn struct {
	srv     *Server
	nc      net.Conn
	out     chan outFrame // pooled encoded response frames
	sem     chan struct{} // in-flight request tokens
	work    chan job      // unbuffered: a send succeeds only into a parked worker
	workers int           // handler workers started; the reader's alone
	reqWg   sync.WaitGroup
}

func (c *conn) serve() {
	defer c.srv.connWg.Done()
	defer c.srv.removeConn(c)
	writerDone := make(chan struct{})
	go c.writeLoop(writerDone)
	c.readLoop()
	// No job is sent after readLoop returns: the workers finish what they
	// hold and exit. All accepted requests finish and enqueue their
	// responses before the writer is told to flush out and exit.
	close(c.work)
	c.reqWg.Wait()
	close(c.out)
	<-writerDone
	//lsm:allow-discard the conn is done; writeLoop already surfaced any write failure by failing the stream
	c.nc.Close()
}

// dispatch hands a request to a parked worker, or starts one when none is
// parked. Workers never exit before the connection does, so the count
// only grows, and it stops at MaxInFlight: past it the reader waits for a
// worker to park — by then one holds no token, so that wait is short.
func (c *conn) dispatch(j job) {
	select {
	case c.work <- j:
		return
	default:
	}
	if c.workers < cap(c.sem) {
		c.workers++
		go c.worker(j)
		return
	}
	c.work <- j
}

// worker serves jobs until serve closes the work channel.
func (c *conn) worker(j job) {
	for ok := true; ok; j, ok = <-c.work {
		c.serveRequest(j)
	}
}

func (c *conn) readLoop() {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	traced := c.srv.obs != nil
	for {
		if c.srv.draining() {
			return
		}
		rb := reqBufPool.Get().(*reqBuf)
		frame, err := wire.ReadFrame(br, rb.frame, wire.MaxFrame)
		if err != nil {
			putReqBuf(rb)
			return // EOF, peer reset, shutdown deadline, oversized frame
		}
		var start time.Time
		if traced {
			start = time.Now()
		}
		rb.frame = frame[:cap(frame)]
		c.srv.counters.Requests.Add(1)
		// Decode in place: the request's byte fields alias the pooled
		// buffer, and its mutations fill the buffer's list; both stay with
		// this request until its handler is done.
		req, err := wire.DecodeRequestInto(frame, rb.muts)
		if req.Muts != nil {
			rb.muts = req.Muts
		}
		if err != nil {
			// The stream is unframed garbage from here on; answer with a
			// zero-ID error so the client can log it, then hang up.
			putReqBuf(rb)
			c.srv.counters.Errors.Add(1)
			bp := frameBufPool.Get().(*[]byte)
			*bp = wire.AppendResponse((*bp)[:0], wire.ErrorResponse(0, wire.CodeBadRequest, err.Error()))
			c.out <- outFrame{bp: bp} //lsm:poolleak-ok ownership of the frame moves to writeLoop, which returns it with Put after writing
			return
		}
		var tr trace
		if traced {
			tr = trace{op: obsOpOf(req.Op), id: req.ID, start: start}
			tr.decode = tr.lap()
		}
		// Backpressure: past MaxInFlight outstanding requests this blocks,
		// which stops reading the socket and lets TCP flow control push
		// back on the client.
		c.sem <- struct{}{}
		c.reqWg.Add(1)
		c.dispatch(job{req: req, rb: rb, tr: tr}) //lsm:poolleak-ok the handler worker owns the request's buffer from here; serveRequest returns it via putReqBuf
	}
}

// serveRequest executes one request on a handler worker and enqueues its
// response. It returns the request's buffer, sem token and reqWg count.
//
// Every op is answered here, through one switch. An op whose engine call
// lends its answer to a callback (GET, SECONDARY_QUERY, FILTER_SCAN,
// APPLY_BATCH) encodes its reply into the pooled frame from inside that
// callback, while the answer — a pinned buffer-cache page, the router's
// recycled merged answer, the batch's recycled report — is still valid:
// the server keeps no copy of an answer. Every other op, a miss and every
// error leave their reply in resp, which the one tail encodes. The tail
// also ends the engine and encode stages, counts errors and hands the frame
// to the writer.
//
// Requests arrive decoded in place: their byte fields alias a pooled
// receive buffer that is reused once the request finishes. Reads and writes
// alike hand the fields to the engine as they are: the engine retains none
// of a mutation's bytes once the apply returns (core.Dataset.Apply states
// and tests the contract — the memtable and the log copy what they keep),
// and a write returns here only after it has committed, so the buffer
// outlives every use of it. A single write (upsert, insert, delete) runs on
// the handler worker that took the request, like every other op:
// concurrent writers share WAL fsyncs through the engine's group commit,
// which is the one layer that batches them.
func (c *conn) serveRequest(j job) {
	defer c.reqWg.Done()
	defer func() { <-c.sem }()
	defer putReqBuf(j.rb)
	req, tr := j.req, j.tr
	traced := !tr.start.IsZero()
	// Admission control: data-plane ops pass through the global weighted
	// budget; a shed request fails fast without ever touching the engine.
	// Control-plane ops (PING, STATS, FLUSH) bypass it — health checks must
	// work on an overloaded server.
	var shed error
	release := func() {}
	if adm := c.srv.adm; adm != nil {
		if class, ok := admissionClassOf(req.Op); ok {
			if r, err := adm.Acquire(class); err != nil {
				shed = err
			} else {
				release = r
			}
		}
	}
	if traced {
		tr.lap() // the hop to this worker and the admission wait are no stage
	}
	bp := frameBufPool.Get().(*[]byte)
	resp := wire.Response{ID: req.ID, Kind: wire.KindOK}
	encoded := false // an engine callback encoded the reply into *bp
	encode := func(r wire.Response) {
		if traced {
			tr.engine = tr.lap()
		}
		*bp = wire.AppendResponse((*bp)[:0], r)
		encoded = true
	}
	var err error
	switch {
	case shed != nil:
		resp = admissionError(req.ID, shed)
	case (req.Op == wire.OpSecondaryQuery || req.Op == wire.OpFilterScan) && req.Limit < 0:
		resp = wire.ErrorResponse(req.ID, wire.CodeBadRequest, "negative limit")
	case req.Op == wire.OpPing:
	case req.Op == wire.OpGet:
		resp.Kind = wire.KindValue // a miss, unless the visitor runs
		_, err = c.srv.db.GetWith(req.Key, func(val []byte) {
			encode(wire.Response{ID: req.ID, Kind: wire.KindValue, Found: true, Value: val})
		})
	case req.Op == wire.OpSecondaryQuery:
		err = c.srv.db.SecondaryQueryWith(req.Index, req.Lo, req.Hi, lsmstore.QueryOptions{
			Validation: lsmstore.ValidationMethod(req.Validation), // range-checked by the store
			IndexOnly:  req.IndexOnly,
			Limit:      int(req.Limit),
		}, func(res *lsmstore.QueryResult) {
			encode(wire.Response{ID: req.ID, Kind: wire.KindQuery, Records: res.Records, Keys: res.Keys})
		})
	case req.Op == wire.OpFilterScan:
		err = c.srv.db.FilterScanWith(req.FilterLo, req.FilterHi, int(req.Limit), func(res *lsmstore.QueryResult) {
			encode(wire.Response{ID: req.ID, Kind: wire.KindScan, Records: res.Records})
		})
	case req.Op == wire.OpApplyBatch: // the decoder already refused out-of-range mutation ops
		err = c.srv.db.ApplyBatchWith(req.Muts, func(applied []bool) {
			encode(wire.Response{ID: req.ID, Kind: wire.KindBatch, AppliedBatch: applied})
		})
	case req.Op == wire.OpUpsert:
		err = c.srv.db.Upsert(req.Key, req.Value)
	case req.Op == wire.OpInsert:
		resp.Kind = wire.KindApplied
		resp.Applied, err = c.srv.db.Insert(req.Key, req.Value)
	case req.Op == wire.OpDelete:
		resp.Kind = wire.KindApplied
		resp.Applied, err = c.srv.db.Delete(req.Key)
	case req.Op == wire.OpStats:
		resp.Kind = wire.KindStats
		resp.Stats, err = json.Marshal(c.srv.db.Stats())
	case req.Op == wire.OpFlush:
		err = c.srv.db.Flush()
	default:
		resp = wire.ErrorResponse(req.ID, wire.CodeBadRequest, fmt.Sprintf("unknown op %d", req.Op))
	}
	if err != nil {
		resp, encoded = c.srv.errorResponse(req.ID, err), false
	}
	if !encoded {
		if traced {
			tr.engine = tr.lap()
		}
		*bp = wire.AppendResponse((*bp)[:0], resp)
	}
	if traced {
		tr.encode = tr.lap()
	}
	if resp.Kind == wire.KindError {
		c.srv.counters.Errors.Add(1)
	}
	// The budget is returned before the reply can reach the client, so a
	// client that has its answer sees the request out of the budget.
	release()
	c.out <- outFrame{bp: bp, tr: tr} //lsm:poolleak-ok ownership of the frame moves to writeLoop, which returns it with Put after writing
}

func (c *conn) writeLoop(done chan struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	failed := false
	// A write failure poisons the whole response stream (the peer cannot
	// resynchronize frames), so close the socket immediately: the reader
	// stops accepting requests and the client observes the break instead
	// of waiting on responses that will never come. The loop keeps
	// draining so handlers never block on a dead connection.
	fail := func() {
		failed = true
		//lsm:allow-discard the close IS the error report: it breaks the stream so the peer observes the failure
		c.nc.Close()
	}
	for of := range c.out {
		bp := of.bp
		if !failed {
			if err := wire.WriteFrame(bw, *bp); err != nil {
				fail()
			} else if len(c.out) == 0 {
				// Flush only when no more responses are queued: consecutive
				// pipelined responses share flushes.
				if err := bw.Flush(); err != nil {
					fail()
				}
			}
		}
		if !of.tr.start.IsZero() {
			c.srv.recordRequest(of.tr)
		}
		if cap(*bp) <= maxPooledFrame {
			frameBufPool.Put(bp) // WriteFrame copied the bytes into bw
		}
	}
	if !failed {
		// The connection is closing right after this flush, but a failure
		// still means the peer lost responses mid-frame: poison the socket
		// so the client observes a break, not a clean shutdown.
		if err := bw.Flush(); err != nil {
			fail()
		}
	}
}

// admissionClassOf maps a wire op onto its admission class. Control-plane
// ops (PING, STATS, FLUSH) report ok=false: they bypass admission.
func admissionClassOf(op wire.Op) (admission.Class, bool) {
	switch op {
	case wire.OpGet:
		return admission.ClassRead, true
	case wire.OpUpsert, wire.OpInsert, wire.OpDelete:
		return admission.ClassWrite, true
	case wire.OpApplyBatch:
		return admission.ClassBatch, true
	case wire.OpSecondaryQuery:
		return admission.ClassQuery, true
	case wire.OpFilterScan:
		return admission.ClassScan, true
	}
	return 0, false
}

// admissionError maps an admission failure onto its typed wire error.
func admissionError(id uint64, err error) wire.Response {
	code := wire.CodeOverloaded
	if errors.Is(err, admission.ErrClosed) {
		code = wire.CodeShuttingDown
	}
	return wire.ErrorResponse(id, code, err.Error())
}

// obsOpOf maps a wire op onto its latency-histogram class.
func obsOpOf(op wire.Op) obs.Op {
	switch op {
	case wire.OpGet:
		return obs.OpGet
	case wire.OpUpsert:
		return obs.OpUpsert
	case wire.OpInsert:
		return obs.OpInsert
	case wire.OpDelete:
		return obs.OpDelete
	case wire.OpApplyBatch:
		return obs.OpApplyBatch
	case wire.OpSecondaryQuery:
		return obs.OpSecondaryQuery
	case wire.OpFilterScan:
		return obs.OpFilterScan
	default:
		return obs.OpOther
	}
}

// recordRequest folds one completed request into the histograms and,
// past the threshold, the slow-request ring. Called from writeLoop after
// the response frame hit the socket, so the write stage and the total
// are real.
func (s *Server) recordRequest(tr trace) {
	total := time.Since(tr.start)
	write := total - tr.at
	s.obs.RecordOp(tr.op, total)
	s.obs.RecordStage(obs.StageDecode, tr.decode)
	s.obs.RecordStage(obs.StageEngine, tr.engine)
	s.obs.RecordStage(obs.StageEncode, tr.encode)
	s.obs.RecordStage(obs.StageWrite, write)
	if s.slow != nil && total >= s.slow.Threshold() {
		s.slow.Add(obs.SlowEntry{
			Op:           tr.op.String(),
			ReqID:        tr.id,
			TotalMicros:  total.Microseconds(),
			DecodeMicros: tr.decode.Microseconds(),
			EngineMicros: tr.engine.Microseconds(),
			EncodeMicros: tr.encode.Microseconds(),
			WriteMicros:  write.Microseconds(),
		})
	}
}

// errorResponse maps engine errors onto typed wire error codes.
func (s *Server) errorResponse(id uint64, err error) wire.Response {
	code := wire.CodeInternal
	switch {
	case errors.Is(err, lsmstore.ErrClosed):
		code = wire.CodeClosed
	case errors.Is(err, lsmstore.ErrUnknownIndex):
		code = wire.CodeUnknownIndex
	case errors.Is(err, lsmstore.ErrBadQuery):
		code = wire.CodeBadRequest
	}
	return wire.ErrorResponse(id, code, err.Error())
}
