package lsmclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/lsmstore"
)

// The store's and the wire's Record and Mutation are one type (internal/kv),
// not two with equal fields: a batch and an answer cross client, wire,
// server and store without a conversion loop. These stop compiling if
// either side grows its own definition again.
var (
	_ []wire.Record   = []lsmstore.Record(nil)
	_ []wire.Mutation = []lsmstore.Mutation(nil)
	_ wire.MutOp      = lsmstore.OpUpsert
)

// silentServer accepts connections and reads frames but never responds —
// the worst-behaved peer a client timeout must survive.
type silentServer struct {
	ln    net.Listener
	wg    sync.WaitGroup
	conns chan net.Conn
}

func newSilentServer(t *testing.T) *silentServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &silentServer{ln: ln, conns: make(chan net.Conn, 16)}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.conns <- nc
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				var buf []byte
				for {
					frame, err := wire.ReadFrame(nc, buf, 0)
					if err != nil {
						return
					}
					buf = frame[:cap(frame)]
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		close(s.conns)
		for nc := range s.conns {
			nc.Close()
		}
		s.wg.Wait()
	})
	return s
}

func TestRequestTimeout(t *testing.T) {
	srv := newSilentServer(t)
	c, err := DialOptions(Options{
		Addr:           srv.ln.Addr().String(),
		RequestTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Ping(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("ping against a silent server: err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %s", elapsed)
	}
	// The connection is still usable for new requests (the stale response
	// slot was abandoned); a second timed-out ping must not mis-deliver.
	if err := c.Ping(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("second ping: err = %v, want ErrTimeout", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := DialOptions(Options{Addr: "127.0.0.1:1", DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("dial of a dead port succeeded")
	}
	if _, err := DialOptions(Options{}); err == nil {
		t.Fatal("empty addr accepted")
	}
}

func TestBrokenConnectionFailsPendingAndRedials(t *testing.T) {
	srv := newSilentServer(t)
	c, err := DialOptions(Options{
		Addr:           srv.ln.Addr().String(),
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	nc := <-srv.conns // the pool's one connection, server side

	done := make(chan error, 1)
	go func() {
		done <- c.Ping()
	}()
	time.Sleep(20 * time.Millisecond) // let the request get written
	nc.Close()                        // server drops the connection
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ping on a dropped connection succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending request not failed by the broken connection")
	}

	// The next use redials transparently (and then times out silently,
	// proving it reached the fresh connection rather than the dead one).
	redialed := make(chan error, 1)
	go func() {
		redialed <- c.Ping()
	}()
	select {
	case <-srv.conns: // a fresh server-side connection appears
	case <-time.After(5 * time.Second):
		t.Fatal("client did not redial after the connection broke")
	}
	<-redialed // silent server: the ping times out eventually; don't leak it
}

// scriptedServer speaks the wire protocol with a caller-supplied handler,
// for driving the client's retry machinery from the server side.
type scriptedServer struct {
	ln net.Listener
	wg sync.WaitGroup
}

func newScriptedServer(t *testing.T, handle func(req wire.Request) wire.Response) *scriptedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer nc.Close()
				bw := bufio.NewWriter(nc)
				var buf []byte
				for {
					frame, err := wire.ReadFrame(nc, buf, 0)
					if err != nil {
						return
					}
					buf = frame[:cap(frame)]
					req, err := wire.DecodeRequestInPlace(frame) // handle runs before the buffer is reused
					if err != nil {
						return
					}
					resp := handle(req)
					resp.ID = req.ID
					if err := wire.WriteFrame(bw, wire.AppendResponse(nil, resp)); err != nil {
						return
					}
					if err := bw.Flush(); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

func TestBackoffDelayJitterBounds(t *testing.T) {
	base, cap := time.Millisecond, 250*time.Millisecond
	var windows []int64
	capture := func(n int64) int64 {
		if n <= 0 {
			t.Fatalf("jitter draw over non-positive window %d", n)
		}
		windows = append(windows, n)
		return n - 1 // the largest draw: delay must stay under the window
	}
	wantWindows := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 16 * time.Millisecond,
	}
	for attempt, want := range wantWindows {
		d := backoffDelay(attempt, base, cap, capture)
		if got := time.Duration(windows[attempt]); got != want {
			t.Fatalf("attempt %d: window %v, want %v", attempt, got, want)
		}
		if d >= want {
			t.Fatalf("attempt %d: delay %v not strictly under window %v", attempt, d, want)
		}
	}
	// Deep attempts clamp at the cap — no overflow, no growth past it.
	windows = nil
	if d := backoffDelay(40, base, cap, capture); time.Duration(windows[0]) != cap || d >= cap {
		t.Fatalf("attempt 40: window %v delay %v, want window == cap %v", time.Duration(windows[0]), d, cap)
	}
	// Full jitter really spans the window: the production source stays in
	// [0, window) by construction of rand.Int63n; zero draws are legal.
	if d := backoffDelay(3, base, cap, func(int64) int64 { return 0 }); d != 0 {
		t.Fatalf("zero draw gave %v, want 0", d)
	}
}

func TestRetryBudgetExhaustsToErrOverloaded(t *testing.T) {
	var attempts atomic.Int64
	srv := newScriptedServer(t, func(req wire.Request) wire.Response {
		attempts.Add(1)
		return wire.ErrorResponse(req.ID, wire.CodeOverloaded, "budget full")
	})
	c, err := DialOptions(Options{
		Addr:        srv.ln.Addr().String(),
		RetryLimit:  3,
		BackoffBase: 50 * time.Microsecond,
		BackoffCap:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Upsert([]byte("pk"), []byte("v")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := attempts.Load(); got != 4 { // 1 initial + 3 retries
		t.Fatalf("server saw %d attempts, want 4", got)
	}
}

func TestNoRetryOnBadRequestOrClosed(t *testing.T) {
	for _, tc := range []struct {
		code wire.ErrCode
		is   error
	}{
		{wire.CodeBadRequest, nil},
		{wire.CodeClosed, lsmstore.ErrClosed},
	} {
		var attempts atomic.Int64
		srv := newScriptedServer(t, func(req wire.Request) wire.Response {
			attempts.Add(1)
			return wire.ErrorResponse(req.ID, tc.code, "nope")
		})
		c, err := DialOptions(Options{
			Addr:        srv.ln.Addr().String(),
			RetryLimit:  5,
			BackoffBase: 50 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		err = c.Upsert([]byte("pk"), []byte("v"))
		c.Close()
		if err == nil {
			t.Fatalf("%s: upsert succeeded", tc.code)
		}
		if tc.is != nil && !errors.Is(err, tc.is) {
			t.Fatalf("%s: err = %v, want %v", tc.code, err, tc.is)
		}
		var se *ServerError
		if tc.is == nil && !errors.As(err, &se) {
			t.Fatalf("%s: err = %v, want *ServerError", tc.code, err)
		}
		if got := attempts.Load(); got != 1 {
			t.Fatalf("%s: server saw %d attempts, want exactly 1 (no retries)", tc.code, got)
		}
	}
}

func TestRetryRecoversAfterShed(t *testing.T) {
	var attempts atomic.Int64
	srv := newScriptedServer(t, func(req wire.Request) wire.Response {
		if attempts.Add(1) <= 2 {
			return wire.ErrorResponse(req.ID, wire.CodeOverloaded, "shed")
		}
		return wire.Response{ID: req.ID, Kind: wire.KindOK}
	})
	c, err := DialOptions(Options{
		Addr:        srv.ln.Addr().String(),
		RetryLimit:  5,
		BackoffBase: 50 * time.Microsecond,
		BackoffCap:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Upsert([]byte("pk"), []byte("v")); err != nil {
		t.Fatalf("upsert after sheds: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (2 sheds + success)", got)
	}
}

func TestMaxInFlightBoundsPoolConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	srv := newScriptedServer(t, func(req wire.Request) wire.Response {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		cur.Add(-1)
		return wire.Response{ID: req.ID, Kind: wire.KindOK}
	})
	c, err := DialOptions(Options{Addr: srv.ln.Addr().String(), Conns: 2, MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Ping(); err != nil {
				t.Errorf("ping: %v", err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("observed %d concurrent requests, limiter bound is 2", p)
	}
}

func TestUseAfterClose(t *testing.T) {
	srv := newSilentServer(t)
	c, err := DialOptions(Options{Addr: srv.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := c.Ping(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("ping after Close: err = %v, want ErrClientClosed", err)
	}
}

// TestLateResponseNeverReachesARecycledCall hammers the call pool's reuse
// rule. The server echoes each GET's key as the value; it answers half the
// requests at once and the other half after a delay spread across the
// client's timeout, from their own goroutines, so responses and timeouts
// race all the time: some responses land before the timer, some after the
// waiter gave up, and some while its timeout is being handled. A call
// recycled while readLoop can still send on its channel would hand a later
// request somebody else's answer; every request must get its own or
// ErrTimeout.
func TestLateResponseNeverReachesARecycledCall(t *testing.T) {
	const (
		timeout    = 2 * time.Millisecond
		goroutines = 8
		perG       = 150
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup // accept loop, connection readers, delayed answers
		mu    sync.Mutex
		conns []net.Conn
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				var wmu sync.Mutex
				bw := bufio.NewWriter(nc)
				var buf []byte
				for n := 0; ; n++ {
					frame, err := wire.ReadFrame(nc, buf, 0)
					if err != nil {
						return
					}
					buf = frame[:cap(frame)]
					req, err := wire.DecodeRequestInPlace(frame)
					if err != nil {
						return
					}
					out := wire.AppendResponse(nil, wire.Response{ID: req.ID, Kind: wire.KindValue, Found: true, Value: req.Key})
					var delay time.Duration
					if n%2 == 1 { // in [timeout/2, 3*timeout/2), deterministic
						delay = timeout/2 + time.Duration(n*7919%1000)*timeout/1000
					}
					wg.Add(1)
					time.AfterFunc(delay, func() {
						defer wg.Done()
						wmu.Lock()
						defer wmu.Unlock()
						if wire.WriteFrame(bw, out) == nil {
							bw.Flush()
						}
					})
				}
			}()
		}
	}()
	c, err := DialOptions(Options{Addr: ln.Addr().String(), RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		ln.Close()
		mu.Lock()
		for _, nc := range conns {
			nc.Close()
		}
		mu.Unlock()
		wg.Wait()
	})

	var answered, timedOut atomic.Int64
	var gs sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		gs.Add(1)
		go func() {
			defer gs.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("g%d-req%d", g, i)
				val, found, err := c.Get([]byte(key))
				switch {
				case errors.Is(err, ErrTimeout):
					timedOut.Add(1)
				case err != nil:
					t.Errorf("%s: %v", key, err)
					return
				case !found || string(val) != key:
					t.Errorf("request %s got the answer %q (found=%v): another request's response", key, val, found)
					return
				default:
					answered.Add(1)
				}
			}
		}()
	}
	gs.Wait()
	if answered.Load() == 0 || timedOut.Load() == 0 {
		t.Fatalf("%d answered, %d timed out: the test needs both outcomes", answered.Load(), timedOut.Load())
	}
	t.Logf("%d answered, %d timed out", answered.Load(), timedOut.Load())
}

// dialServed opens a store with opts, serves it in process and dials the
// server; the test's cleanup closes all three.
func dialServed(t *testing.T, opts lsmstore.Options) *Client {
	t.Helper()
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr().String())
	if err != nil {
		srv.Kill()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Kill()
		db.Close()
	})
	return c
}

// TestRoundTripAllocations counts the whole process — client and server
// share it — per round trip against an in-process server: a GET answered by
// the read cache allocates its decoded value and nothing else, a PING
// nothing (one of slack each for the runtime's own bookkeeping). A single
// write — an UPSERT of a new key, a DELETE of a missing one — runs on its
// handler worker straight into the engine and allocates nothing. An
// APPLY_BATCH of 64 upserts, of new keys or of each key's first overwrite,
// allocates the client's returned report and nothing else: the server
// decodes into a recycled mutation list and encodes the engine's recycled
// report, and the memtable carves the values from its chunks. Under
// -race the round trips run for the race detector's sake and the counts are
// only logged: sync.Pool then drops Puts at random.
func TestRoundTripAllocations(t *testing.T) {
	c := dialServed(t, lsmstore.Options{ReadCache: lsmstore.ReadCacheOptions{Bytes: 1 << 20}})
	// The batches go to a store with the served ingest's strategy: an Eager
	// overwrite copies the record it replaces (Section 3.1).
	bc := dialServed(t, lsmstore.Options{Strategy: lsmstore.Validation})
	// An Eager overwrite copies the record it replaces into the batch's
	// buffer (Section 3.1), so it allocates no more than the rest.
	ec := dialServed(t, lsmstore.Options{Strategy: lsmstore.Eager})
	pk, record := []byte("pk-1"), []byte("a record of some bytes")
	if err := c.Upsert(pk, record); err != nil {
		t.Fatal(err)
	}
	get := func() {
		if v, found, err := c.Get(pk); err != nil || !found || string(v) != string(record) {
			t.Fatalf("get = %q, %v, %v", v, found, err)
		}
	}
	ping := func() {
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun makes one warm-up call before its 200 measured ones.
	fresh := make([][]byte, 201)
	for i := range fresh {
		fresh[i] = fmt.Appendf(nil, "fresh-%03d", i)
	}
	next := 0
	upsertNew := func() {
		if err := c.Upsert(fresh[next], record); err != nil {
			t.Fatal(err)
		}
		next++
	}
	missing := []byte("never-written")
	deleteMissing := func() {
		if applied, err := c.Delete(missing); err != nil || applied {
			t.Fatalf("delete of a missing key = %v, %v", applied, err)
		}
	}
	// Batches of 64 upserts: 201 of new keys, then the same 201 again,
	// each upsert a key's first overwrite.
	batches := make([][]lsmstore.Mutation, 201)
	for i := range batches {
		batches[i] = make([]lsmstore.Mutation, 64)
		for j := range batches[i] {
			batches[i][j] = lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: fmt.Appendf(nil, "batch-%03d-%02d", i, j), Record: record}
		}
	}
	nextBatch := 0
	applyBatch := func() {
		applied, err := bc.ApplyBatch(batches[nextBatch%len(batches)])
		if err != nil || len(applied) != 64 || !applied[0] || !applied[63] {
			t.Fatalf("batch %d = %v, %v", nextBatch, applied, err)
		}
		nextBatch++
	}
	for _, batch := range batches {
		if _, err := ec.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	nextEager := 0
	eagerOverwrite := func() {
		applied, err := ec.ApplyBatch(batches[nextEager])
		if err != nil || len(applied) != 64 || !applied[0] || !applied[63] {
			t.Fatalf("Eager batch %d = %v, %v", nextEager, applied, err)
		}
		nextEager++
	}
	get() // fills the read cache, the pools and the worker
	for _, tc := range []struct {
		name string
		fn   func()
		max  float64
	}{{"Get", get, 2}, {"Ping", ping, 1}, {"Upsert of a new key", upsertNew, 0}, {"Delete of a missing key", deleteMissing, 0},
		{"ApplyBatch of 64 new keys", applyBatch, 1}, {"ApplyBatch of 64 first overwrites", applyBatch, 1},
		{"ApplyBatch of 64 first overwrites on an Eager store", eagerOverwrite, 1}} {
		n := testing.AllocsPerRun(200, tc.fn)
		t.Logf("%s round trip: %v allocations", tc.name, n)
		if !raceEnabled && n > tc.max {
			t.Errorf("%s round trip: %v allocations, want <= %v", tc.name, n, tc.max)
		}
	}
}
