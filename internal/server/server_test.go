package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/storetest"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/lsmclient"
	"repro/lsmstore"
)

// storeOptions is the small test store: validation strategy, a "user"
// secondary index and a creation-time filter (the tweet-workload schema).
func storeOptions() lsmstore.Options {
	return lsmstore.Options{
		Strategy: lsmstore.Validation,
		Secondaries: []lsmstore.SecondaryIndex{
			{Name: "user", Extract: workload.UserIDOf},
		},
		FilterExtract: workload.CreationOf,
		MemoryBudget:  64 << 10,
		CacheBytes:    2 << 20,
		PageSize:      4 << 10,
		Seed:          5,
	}
}

// startServer opens a store, serves it on an ephemeral port, and returns
// the pieces. Cleanup shuts the server down and closes the DB.
func startServer(t testing.TB, opts lsmstore.Options, mod func(*server.Config)) (*server.Server, *lsmstore.DB) {
	t.Helper()
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{DB: db, Addr: "127.0.0.1:0"}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		closeOK(t, db)
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		closeOK(t, db)
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		closeOK(t, db)
	})
	return srv, db
}

func dial(t testing.TB, srv *server.Server) *lsmclient.Client {
	t.Helper()
	c, err := lsmclient.DialOptions(lsmclient.Options{
		Addr:           srv.Addr().String(),
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeOK(t, c) })
	return c
}

// closeOK closes c and fails the test on an error.
func closeOK(t testing.TB, c io.Closer) {
	t.Helper()
	if err := c.Close(); err != nil {
		t.Error(err)
	}
}

// httpGet fetches url and returns the response with its whole body read
// and closed, failing the test on any error along the way.
func httpGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	_, body := httpGet(t, url)
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatal(err)
	}
}

// tweet builds a deterministic record: PK from id, user id%32, creation=id.
func tweet(id uint64) (pk, rec []byte) {
	tw := workload.Tweet{ID: id, UserID: uint32(id % 32), Creation: int64(id), Message: []byte("m")}
	return tw.PK(), tw.Encode()
}

func TestServeBasicOps(t *testing.T) {
	srv, _ := startServer(t, storeOptions(), nil)
	c := dial(t, srv)

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	pk, rec := tweet(7)
	if err := c.Upsert(pk, rec); err != nil {
		t.Fatal(err)
	}
	got, found, err := c.Get(pk)
	if err != nil || !found {
		t.Fatalf("get: found=%v err=%v", found, err)
	}
	if string(got) != string(rec) {
		t.Fatalf("get = %x, want %x", got, rec)
	}
	if _, found, err := c.Get([]byte("absent-key")); err != nil || found {
		t.Fatalf("absent key: found=%v err=%v", found, err)
	}

	if applied, err := c.Insert(pk, rec); err != nil || applied {
		t.Fatalf("duplicate insert: applied=%v err=%v", applied, err)
	}
	pk2, rec2 := tweet(8)
	if applied, err := c.Insert(pk2, rec2); err != nil || !applied {
		t.Fatalf("fresh insert: applied=%v err=%v", applied, err)
	}
	if applied, err := c.Delete(pk2); err != nil || !applied {
		t.Fatalf("delete: applied=%v err=%v", applied, err)
	}
	if _, found, err := c.Get(pk2); err != nil || found {
		t.Fatalf("deleted key still served (found=%v err=%v)", found, err)
	}

	var batch []lsmstore.Mutation
	for id := uint64(100); id < 110; id++ {
		pk, rec := tweet(id)
		batch = append(batch, lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: pk, Record: rec})
	}
	// A duplicate insert: must come back applied=false.
	batch = append(batch, lsmstore.Mutation{Op: lsmstore.OpInsert, PK: pk, Record: rec})
	applied, err := c.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 11 || !applied[0] || applied[10] {
		t.Fatalf("batch applied = %v", applied)
	}

	res, err := c.SecondaryQuery("user", workload.UserKey(0), workload.UserKey(31),
		lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 11 { // ids 7, 100..109
		t.Fatalf("secondary query returned %d records, want 11", len(res.Records))
	}
	if _, err := c.SecondaryQuery("nope", nil, nil, lsmstore.QueryOptions{}); !errors.Is(err, lsmstore.ErrUnknownIndex) {
		t.Fatalf("unknown index: err = %v, want ErrUnknownIndex", err)
	}

	recs, err := c.FilterScan(100, 104, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("filter scan returned %d records, want 5", len(recs))
	}
	if recs, err := c.FilterScan(0, 1<<40, 3); err != nil || len(recs) != 3 {
		t.Fatalf("limited scan returned %d records, err %v; want 3", len(recs), err)
	}

	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested == 0 || st.Shards != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServedFilterScanOrder: a served FILTER_SCAN answers in primary-key
// order and its limit keeps the smallest keys, on the default one-shard
// store too. Under Mutable-bitmap two flushed components with interleaved
// keys are read one at a time, so an answer cut before it is sorted would
// keep the first component's keys.
func TestServedFilterScanOrder(t *testing.T) {
	opts := storeOptions()
	opts.Strategy = lsmstore.MutableBitmap
	srv, _ := startServer(t, opts, nil)
	c := dial(t, srv)
	for _, from := range []uint64{0, 1} { // the evens, then the odds
		for id := from; id < 40; id += 2 {
			pk, rec := tweet(id)
			if err := c.Upsert(pk, rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := c.FilterScan(0, 1<<40, 5)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, r := range recs {
		got = append(got, binary.BigEndian.Uint64(r.PK))
	}
	if fmt.Sprint(got) != fmt.Sprint([]uint64{0, 1, 2, 3, 4}) {
		t.Fatalf("served FilterScan with limit 5 answered %v, want [0 1 2 3 4]", got)
	}
}

// TestRawFrames drives the server with hand-encoded frames: a negative
// limit is refused only by the ops that read it (a PING carrying one is
// answered OK), and a frame that does not decode is answered with a
// zero-ID bad-request error before the server hangs up.
func TestRawFrames(t *testing.T) {
	srv, _ := startServer(t, storeOptions(), nil)
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer closeOK(t, nc)
	br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
	roundTrip := func(payload []byte) wire.Response {
		t.Helper()
		if err := wire.WriteFrame(bw, payload); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		frame, err := wire.ReadFrame(br, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.DecodeResponse(frame)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, tc := range []struct {
		op   wire.Op
		want wire.Kind
	}{
		{wire.OpPing, wire.KindOK},
		{wire.OpFilterScan, wire.KindError},
		{wire.OpSecondaryQuery, wire.KindError},
	} {
		resp := roundTrip(wire.AppendRequest(nil, wire.Request{ID: 7, Op: tc.op, Index: "user", Limit: -1}))
		if resp.ID != 7 || resp.Kind != tc.want || tc.want == wire.KindError && resp.Code != wire.CodeBadRequest {
			t.Errorf("%v with limit -1 answered %+v, want kind %v", tc.op, resp, tc.want)
		}
	}
	resp := roundTrip([]byte{1}) // an ID and no op
	if resp.ID != 0 || resp.Kind != wire.KindError || resp.Code != wire.CodeBadRequest {
		t.Errorf("a corrupt frame answered %+v, want a zero-ID bad-request error", resp)
	}
	if _, err := wire.ReadFrame(br, nil, 0); err == nil {
		t.Error("the connection stayed open after a corrupt frame")
	}
}

func TestPipelinedConcurrentClients(t *testing.T) {
	opts := storeOptions()
	opts.Shards = 2
	srv, db := startServer(t, opts, nil)
	clients := make([]*lsmclient.Client, 4)
	for i := range clients {
		clients[i] = dial(t, srv)
	}

	// Two pipelined workers per connection.
	const workers, perWorker = 8, 150
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w%len(clients)]
			for i := 0; i < perWorker; i++ {
				id := uint64(w*perWorker + i)
				pk, rec := tweet(id)
				if err := c.Upsert(pk, rec); err != nil {
					errs[w] = err
					return
				}
				if i%10 == 0 {
					if _, _, err := c.Get(pk); err != nil {
						errs[w] = err
						return
					}
				}
				if i%50 == 0 {
					if _, err := c.SecondaryQuery("user", workload.UserKey(0), workload.UserKey(31),
						lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation, Limit: 10}); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	// Every write must be visible both through a client and the DB.
	c := clients[0]
	for id := uint64(0); id < workers*perWorker; id += 97 {
		pk, rec := tweet(id)
		got, found, err := c.Get(pk)
		if err != nil || !found || string(got) != string(rec) {
			t.Fatalf("id %d: found=%v err=%v", id, found, err)
		}
	}
	if got := db.Stats().Ingested; got != workers*perWorker {
		t.Fatalf("ingested = %d, want %d", got, workers*perWorker)
	}
}

// TestServedSingleWritesShareFsyncs serves a two-shard file-backend store
// to eight connections, each sending its own UPSERTs. A single write runs
// on its handler worker straight into the engine, so the only thing that
// batches concurrent writers is the WAL's group commit: commit groups must
// form, and the writes must cost fewer fsyncs than there are writes.
func TestServedSingleWritesShareFsyncs(t *testing.T) {
	opts := storeOptions()
	opts.Shards = 2
	opts.Dir = t.TempDir()
	srv, db := startServer(t, opts, nil)

	const conns, perConn = 8, 400
	const writes = conns * perConn
	clients := make([]*lsmclient.Client, conns)
	for i := range clients {
		clients[i] = dial(t, srv)
	}
	before := db.Stats().Counters
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *lsmclient.Client) {
			defer wg.Done()
			for i := 0; i < perConn; i++ {
				pk, rec := tweet(uint64(w*perConn + i))
				if err := c.Upsert(pk, rec); err != nil {
					errs[w] = err
					return
				}
			}
		}(w, c)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("connection %d: %v", w, err)
		}
	}
	d := db.Stats().Counters.Sub(before)
	for id := uint64(0); id < writes; id++ {
		pk, rec := tweet(id)
		got, found, err := clients[0].Get(pk)
		if err != nil || !found || string(got) != string(rec) {
			t.Fatalf("id %d: found=%v err=%v", id, found, err)
		}
	}
	t.Logf("%d served writes: %d WAL fsyncs, %d commit groups covering %d writes",
		writes, d.WALFsyncs, d.GroupCommitBatches, d.GroupCommitWaiters)
	if d.GroupCommitWaiters <= d.GroupCommitBatches {
		t.Fatalf("%d commit groups covered %d writes: no group held more than one writer",
			d.GroupCommitBatches, d.GroupCommitWaiters)
	}
	if d.WALFsyncs >= writes {
		t.Fatalf("%d served writes cost %d WAL fsyncs, want fewer than one per write", writes, d.WALFsyncs)
	}
}

func TestBackpressureBoundsInFlight(t *testing.T) {
	srv, _ := startServer(t, storeOptions(), func(cfg *server.Config) {
		cfg.MaxInFlight = 2
	})
	c := dial(t, srv)
	var wg sync.WaitGroup
	var fails atomic.Int64
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pk, rec := tweet(uint64(i))
			if err := c.Upsert(pk, rec); err != nil {
				fails.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if n := fails.Load(); n != 0 {
		t.Fatalf("%d writes failed under backpressure", n)
	}
	for i := 0; i < 64; i++ {
		pk, _ := tweet(uint64(i))
		if _, found, err := c.Get(pk); err != nil || !found {
			t.Fatalf("key %d missing after backpressured writes (err=%v)", i, err)
		}
	}
}

// TestConnCloseStopsWorkers: a connection's handler workers park between
// requests instead of exiting, so they must exit when the connection
// closes — a client that connects, pipelines and leaves takes every
// goroutine it caused with it.
func TestConnCloseStopsWorkers(t *testing.T) {
	srv, _ := startServer(t, storeOptions(), nil)
	base := runtime.NumGoroutine()
	c, err := lsmclient.DialOptions(lsmclient.Options{Addr: srv.Addr().String(), RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				pk, rec := tweet(uint64(g*20 + i))
				if err := c.Upsert(pk, rec); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := c.Get(pk); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// The client's reader, the connection's reader and writer, and at least
	// one parked worker.
	if n := runtime.NumGoroutine(); n < base+4 {
		t.Fatalf("%d goroutines with an idle connection open, baseline %d: no parked worker", n, base)
	}
	closeOK(t, c)
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 10s after the connection closed, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPSidecar(t *testing.T) {
	srv, _ := startServer(t, storeOptions(), func(cfg *server.Config) {
		cfg.HTTPAddr = "127.0.0.1:0"
	})
	c := dial(t, srv)
	pk, rec := tweet(1)
	if err := c.Upsert(pk, rec); err != nil {
		t.Fatal(err)
	}

	base := "http://" + srv.HTTPAddr().String()
	resp, body := httpGet(t, base+"/healthz")
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}

	var payload server.StatsPayload
	getJSON(t, base+"/stats", &payload)
	if payload.Engine.Ingested != 1 {
		t.Fatalf("/stats engine ingested = %d, want 1", payload.Engine.Ingested)
	}
	if payload.Server.Requests == 0 || payload.Server.Connections == 0 {
		t.Fatalf("/stats server counters empty: %+v", payload.Server)
	}
}

func TestClosedStoreSurfacesTypedError(t *testing.T) {
	srv, db := startServer(t, storeOptions(), nil)
	c := dial(t, srv)
	pk, rec := tweet(1)
	if err := c.Upsert(pk, rec); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Upsert(pk, rec); !errors.Is(err, lsmstore.ErrClosed) {
		t.Fatalf("write on closed store: err = %v, want ErrClosed", err)
	}
	if _, _, err := c.Get(pk); !errors.Is(err, lsmstore.ErrClosed) {
		t.Fatalf("read on closed store: err = %v, want ErrClosed", err)
	}
	// The server itself must survive: ping has no DB dependency.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulShutdownUnderLoad drains the server while writers hammer it:
// every write must either succeed or fail with a connection/shutdown
// error, and every acknowledged write must be in the store afterwards.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	db, err := lsmstore.Open(storeOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer closeOK(t, db)
	srv, err := server.New(server.Config{DB: db, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	clients := make([]*lsmclient.Client, 4)
	for i := range clients {
		clients[i] = dial(t, srv)
	}

	// Two pipelined workers per connection.
	const workers = 8
	var (
		wg    sync.WaitGroup
		ackMu sync.Mutex
		acked []uint64
		stop  atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w%len(clients)]
			for i := 0; !stop.Load(); i++ {
				id := uint64(w)<<32 | uint64(i)
				pk, rec := tweet(id)
				if err := c.Upsert(pk, rec); err != nil {
					return // the drain cut us off; acknowledged writes stand
				}
				ackMu.Lock()
				acked = append(acked, id)
				ackMu.Unlock()
			}
		}(w)
	}
	time.Sleep(100 * time.Millisecond) // let load build
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	stop.Store(true)
	wg.Wait()

	if len(acked) == 0 {
		t.Fatal("no writes were acknowledged before the drain")
	}
	for _, id := range acked {
		pk, rec := tweet(id)
		got, found, err := db.Get(pk)
		if err != nil || !found || string(got) != string(rec) {
			t.Fatalf("acknowledged write %d lost (found=%v err=%v)", id, found, err)
		}
	}
	// Shutdown is idempotent and Kill after Shutdown is a no-op.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	srv.Kill()
}

// TestServerKillAndReopen is the end-to-end acceptance test: a server on
// the file backend, four pipelined client connections driving upserts,
// secondary queries and filter scans; the server is killed mid-load; the
// directory is reopened (via a crash-image snapshot, since the abandoned
// store still holds the flock) and every acknowledged write must be
// served.
func TestServerKillAndReopen(t *testing.T) {
	dir := t.TempDir()
	opts := storeOptions()
	opts.Dir = dir
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Never Close: the kill must leave a crash image. The flock dies with
	// the test process.
	srv, err := server.New(server.Config{DB: db, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	const conns = 4
	clients := make([]*lsmclient.Client, conns)
	for i := range clients {
		cl, err := lsmclient.DialOptions(lsmclient.Options{
			Addr: srv.Addr().String(), RequestTimeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer closeOK(t, cl)
		clients[i] = cl
	}

	var (
		wg    sync.WaitGroup
		ackMu sync.Mutex
		acked []uint64
		stop  atomic.Bool
	)
	// Two pipelined workers per connection: writers mixing single upserts
	// and batches with periodic secondary queries and filter scans.
	for ci, cl := range clients {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(ci, g int, cl *lsmclient.Client) {
				defer wg.Done()
				worker := ci*2 + g
				for i := 0; !stop.Load(); i++ {
					id := uint64(worker)<<32 | uint64(i)
					pk, rec := tweet(id)
					if i%20 == 19 { // a batch write
						pk2, rec2 := tweet(id | 1<<31)
						if _, err := cl.ApplyBatch([]lsmstore.Mutation{
							{Op: lsmstore.OpUpsert, PK: pk, Record: rec},
							{Op: lsmstore.OpUpsert, PK: pk2, Record: rec2},
						}); err != nil {
							return
						}
						ackMu.Lock()
						acked = append(acked, id, id|1<<31)
						ackMu.Unlock()
					} else {
						if err := cl.Upsert(pk, rec); err != nil {
							return
						}
						ackMu.Lock()
						acked = append(acked, id)
						ackMu.Unlock()
					}
					if i%25 == 7 {
						if _, err := cl.SecondaryQuery("user", workload.UserKey(0), workload.UserKey(31),
							lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation, Limit: 20}); err != nil {
							return
						}
					}
					if i%25 == 13 {
						if _, err := cl.FilterScan(0, 1<<40, 20); err != nil {
							return
						}
					}
				}
			}(ci, g, cl)
		}
	}

	// Let the load run until real work has been acknowledged, then kill.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ackMu.Lock()
		n := len(acked)
		ackMu.Unlock()
		if n >= 500 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv.Kill()
	stop.Store(true)
	wg.Wait()
	ackMu.Lock()
	ackedFinal := append([]uint64(nil), acked...)
	ackMu.Unlock()
	if len(ackedFinal) == 0 {
		t.Fatal("no writes acknowledged before the kill")
	}

	// The abandoned DB still holds the directory flock; reopen a crash
	// image, exactly like a restarted machine would see the disk.
	snap := t.TempDir()
	if err := storetest.SnapshotStoreDir(dir, snap); err != nil {
		t.Fatal(err)
	}
	reopened, err := lsmstore.Open(func() lsmstore.Options {
		o := storeOptions()
		o.Dir = snap
		return o
	}())
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer closeOK(t, reopened)

	users := map[uint32][]uint64{}
	for _, id := range ackedFinal {
		pk, rec := tweet(id)
		got, found, err := reopened.Get(pk)
		if err != nil || !found || string(got) != string(rec) {
			t.Fatalf("acknowledged write %d lost after kill+reopen (found=%v err=%v)", id, found, err)
		}
		users[uint32(id%32)] = append(users[uint32(id%32)], id)
	}
	// The secondary index must serve the recovered writes too.
	res, err := reopened.SecondaryQuery("user", workload.UserKey(0), workload.UserKey(31),
		lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, r := range res.Records {
		seen[binary.BigEndian.Uint64(r.PK)] = true
	}
	for _, id := range ackedFinal {
		if !seen[id] {
			t.Fatalf("acknowledged write %d missing from the secondary index after reopen", id)
		}
	}
}

func TestServerRejectsBadConfig(t *testing.T) {
	if _, err := server.New(server.Config{Addr: "x"}); err == nil {
		t.Fatal("nil DB accepted")
	}
	db, err := lsmstore.Open(storeOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer closeOK(t, db)
	if _, err := server.New(server.Config{DB: db}); err == nil {
		t.Fatal("empty addr accepted")
	}
}

// TestServedBatchSurvivesBufferReuse is the copy-before-retain guard for the
// log: a request is decoded in place over a pooled receive buffer, and the
// device's log area keeps each write's key and record until a flush covers
// it — Recover reads them back from the device. Same-sized batches on one
// connection recycle that buffer over and over; after a crash every
// acknowledged write must still replay byte-identical. The server hands the
// engine the buffer's bytes as they are, so the engine's copy (the log
// encodes the record and the device copies the encoding) is the only one;
// TestServedWritesSurviveBufferReuse covers the other write ops and
// the memory components.
func TestServedBatchSurvivesBufferReuse(t *testing.T) {
	opts := storeOptions()
	opts.MemoryBudget = 8 << 20 // nothing flushes: recovery replays every write from the log
	srv, db := startServer(t, opts, nil)
	c := dial(t, srv)

	const batches, perBatch = 64, 16
	want := make(map[string][]byte, batches*perBatch)
	for b := uint64(0); b < batches; b++ {
		muts := make([]lsmstore.Mutation, perBatch)
		for i := range muts {
			pk, rec := tweet(b*perBatch + uint64(i))
			muts[i] = lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: pk, Record: rec}
			want[string(pk)] = rec
		}
		if _, err := c.ApplyBatch(muts); err != nil {
			t.Fatal(err)
		}
		// A single write between batches goes through the same pool.
		pk, rec := tweet(1<<32 + b)
		if err := c.Upsert(pk, rec); err != nil {
			t.Fatal(err)
		}
		want[string(pk)] = rec
	}
	if st := db.Stats(); st.PrimaryComponents != 0 {
		t.Fatalf("%d components flushed; the test must replay the log", st.PrimaryComponents)
	}
	db.Crash()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	for pk, rec := range want {
		got, found, err := c.Get([]byte(pk))
		if err != nil || !found || string(got) != string(rec) {
			t.Fatalf("key %x: found=%v err=%v\n got %x\nwant %x", pk, found, err, got, rec)
		}
	}
}

// TestServedWritesSurviveBufferReuse drives every write op — UPSERT, INSERT,
// DELETE, APPLY_BATCH — pipelined over one connection, so the pooled receive
// buffers the requests are decoded in are recycled for later frames while
// earlier batches are still in flight or long since applied. The server
// applies writes straight out of those buffers; whatever the engine kept
// must be its own copy. Records vary in length and content, so a retained
// alias reads back as another request's bytes: from the memory components,
// through a secondary query, after a flush, and from the log after a crash.
func TestServedWritesSurviveBufferReuse(t *testing.T) {
	opts := storeOptions()
	opts.MemoryBudget = 8 << 20 // nothing flushes until the test says so
	srv, db := startServer(t, opts, nil)
	c := dial(t, srv)

	record := func(id uint64, version byte) (pk, rec []byte) {
		tw := workload.Tweet{ID: id, UserID: uint32(id % 32), Creation: int64(id),
			Message: bytes.Repeat([]byte{byte(id), version}, int(id%40))}
		return tw.PK(), tw.Encode()
	}
	const workers, perWorker = 8, 120
	models := make([]map[string][]byte, workers) // per worker: pk -> record; disjoint ids
	write := func(round uint64) {
		var wg sync.WaitGroup
		for w := range models {
			if models[w] == nil {
				models[w] = map[string][]byte{}
			}
			wg.Add(1)
			go func(w int, model map[string][]byte) {
				defer wg.Done()
				for i := uint64(0); i < perWorker; i++ {
					id := round<<40 | uint64(w)<<20 | i
					pk, rec := record(id, 1)
					var err error
					switch i % 4 {
					case 0:
						err = c.Upsert(pk, rec)
						model[string(pk)] = rec
					case 1:
						var applied bool
						if applied, err = c.Insert(pk, rec); err == nil && !applied {
							err = errors.New("fresh insert not applied")
						}
						model[string(pk)] = rec
					case 2: // a batch: a new key, a new version of the last upsert, a duplicate insert
						oldPK, newRec := record(id-2, 2)
						dupPK, dupRec := record(id-1, 3)
						var applied []bool
						applied, err = c.ApplyBatch([]lsmstore.Mutation{
							{Op: lsmstore.OpUpsert, PK: pk, Record: rec},
							{Op: lsmstore.OpUpsert, PK: oldPK, Record: newRec},
							{Op: lsmstore.OpInsert, PK: dupPK, Record: dupRec},
						})
						if err == nil && (len(applied) != 3 || applied[2]) {
							err = fmt.Errorf("batch report %v, want the duplicate insert ignored", applied)
						}
						model[string(pk)], model[string(oldPK)] = rec, newRec
					case 3: // delete what the batch just wrote
						delPK, _ := record(id-1, 1)
						_, err = c.Delete(delPK)
						delete(model, string(delPK))
					}
					if err != nil {
						t.Errorf("worker %d op %d: %v", w, i, err)
						return
					}
				}
			}(w, models[w])
		}
		wg.Wait()
	}
	check := func(stage string) {
		t.Helper()
		want := map[string][]byte{}
		for _, model := range models {
			for pk, rec := range model {
				want[pk] = rec
				got, found, err := c.Get([]byte(pk))
				if err != nil || !found || !bytes.Equal(got, rec) {
					t.Fatalf("%s: key %x: found=%v err=%v\n got %x\nwant %x", stage, pk, found, err, got, rec)
				}
			}
		}
		res, err := c.SecondaryQuery("user", workload.UserKey(0), workload.UserKey(31),
			lsmstore.QueryOptions{Validation: lsmstore.DirectValidation})
		if err != nil {
			t.Fatalf("%s: query: %v", stage, err)
		}
		if len(res.Records) != len(want) {
			t.Fatalf("%s: query returned %d records, want %d", stage, len(res.Records), len(want))
		}
		for _, r := range res.Records {
			if !bytes.Equal(r.Value, want[string(r.PK)]) {
				t.Fatalf("%s: query returned %x = %x, want %x", stage, r.PK, r.Value, want[string(r.PK)])
			}
		}
	}

	write(0)
	if t.Failed() {
		return
	}
	if st := db.Stats(); st.PrimaryComponents != 0 {
		t.Fatalf("%d components flushed before the test asked", st.PrimaryComponents)
	}
	check("memory components")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	check("flushed")
	write(1) // these reach the log and the memory components only
	if t.Failed() {
		return
	}
	db.Crash()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	check("replayed")
}

// TestBadQueryIsBadRequest checks that query options the store rejects
// cross the wire as CodeBadRequest — a ServerError the client never
// retries — and leave the connection usable.
func TestBadQueryIsBadRequest(t *testing.T) {
	srv, _ := startServer(t, storeOptions(), nil)
	c := dial(t, srv)
	for _, q := range []struct {
		index string
		opts  lsmstore.QueryOptions
	}{
		{"user", lsmstore.QueryOptions{Validation: lsmstore.DirectValidation, IndexOnly: true}},
		{"user", lsmstore.QueryOptions{Validation: lsmstore.ValidationMethod(9)}},
		{"nope", lsmstore.QueryOptions{Validation: lsmstore.ValidationMethod(200)}}, // options are judged before the index is looked up
	} {
		_, err := c.SecondaryQuery(q.index, workload.UserKey(0), workload.UserKey(31), q.opts)
		var se *lsmclient.ServerError
		if !errors.As(err, &se) || se.Code != "bad-request" {
			t.Fatalf("%s %+v: err = %v, want a bad-request ServerError", q.index, q.opts, err)
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after a rejected query: %v", err)
	}
}
