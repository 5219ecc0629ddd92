package lsmstore_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/server"
	"repro/internal/workload"
	"repro/lsmclient"
	"repro/lsmstore"
)

// TestSecondaryQueryAllocations: a secondary query allocates only the
// answer it hands its caller. The merged iterator's sources, the B+-tree
// scans, the candidates and the lookup cursors live in a recycled per-query
// scratch; the shards answer into recycled per-shard slices and arenas, the
// merged answer is recycled too, and the fan-out's legs run on parked
// helpers. So SecondaryQueryWith allocates nothing, and SecondaryQuery
// three objects: its copy's result, records (or keys) slice and byte block.
// Neither grows with the number of components the query reads.
func TestSecondaryQueryAllocations(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, tc := range []struct {
			name string
			opts lsmstore.QueryOptions
		}{
			{"direct", lsmstore.QueryOptions{Validation: lsmstore.DirectValidation}},
			{"timestamp-index-only", lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation, IndexOnly: true}},
		} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, tc.name), func(t *testing.T) {
				opts := tinyOptions(lsmstore.Validation)
				opts.Shards = shards
				db, err := lsmstore.Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				// load upserts n records of users [user0, user0+40) under fresh ids
				// from id0, and then updates a quarter of them, leaving obsolete
				// secondary entries.
				load := func(id0 uint64, user0 uint32, n int) {
					for i := range n + n/4 {
						id := id0 + uint64(i%n)
						if err := db.Upsert(tweetPK(id), tweetRec(id, user0+uint32(i%40), int64(i))); err != nil {
							t.Fatal(err)
						}
					}
				}
				lo, hi := workload.UserKey(10), workload.UserKey(11)
				var results int
				q := func() {
					res, err := db.SecondaryQuery("user", lo, hi, tc.opts)
					if err != nil {
						t.Fatal(err)
					}
					results = len(res.Records) + len(res.Keys)
				}
				qWith := func() {
					if err := db.SecondaryQueryWith("user", lo, hi, tc.opts, func(res *lsmstore.QueryResult) {
						results = len(res.Records) + len(res.Keys)
					}); err != nil {
						t.Fatal(err)
					}
				}
				// The second load adds components but nothing the query returns.
				load(0, 0, 3000)
				before, compsBefore := testing.AllocsPerRun(100, q), db.Stats().PrimaryComponents
				load(1<<20, 1000, 6000)
				after, compsAfter := testing.AllocsPerRun(100, q), db.Stats().PrimaryComponents
				with := testing.AllocsPerRun(100, qWith)
				t.Logf("%d results: %.1f allocations over %d primary components, %.1f over %d; %.1f with a callback",
					results, before, compsBefore, after, compsAfter, with)
				if results < 100 || compsAfter <= compsBefore {
					t.Fatalf("%d results, components %d then %d: the case measures nothing", results, compsBefore, compsAfter)
				}
				if raceEnabled {
					return
				}
				if before > 3 || after > before {
					t.Errorf("SecondaryQuery: %.1f allocations per query, then %.1f over more components; want at most 3, not growing", before, after)
				}
				if with != 0 {
					t.Errorf("SecondaryQueryWith: %.1f allocations per query, want 0", with)
				}
			})
		}
	}
}

// TestBoundedScanCopiesLimit: a filter scan with a limit copies only
// records among each shard's limit smallest keys so far, so its buffer does
// not grow with the range it scans. Over 20 000 matching records a scan
// with limit 5 allocates a few KiB per call, on one shard and on two, for a
// strategy that scans in primary-key order and for Mutable-bitmap, which
// scans a run per component; buffering the whole answer before the cut
// allocates megabytes.
func TestBoundedScanCopiesLimit(t *testing.T) {
	const n, limit = 20000, 5
	for _, strategy := range []lsmstore.Strategy{lsmstore.Validation, lsmstore.MutableBitmap} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/shards=%d", strategy, shards), func(t *testing.T) {
				opts := tinyOptions(strategy)
				opts.Shards = shards
				db, err := lsmstore.Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				for i := range n {
					id := uint64(n - 1 - i) // the newest components hold the smallest keys
					if err := db.Upsert(tweetPK(id), tweetRec(id, uint32(i%40), int64(i))); err != nil {
						t.Fatal(err)
					}
				}
				var got []uint64
				scan := func() {
					got = got[:0]
					if err := db.FilterScanWith(0, n, limit, func(res *lsmstore.QueryResult) {
						for _, r := range res.Records {
							got = append(got, binary.BigEndian.Uint64(r.PK))
						}
					}); err != nil {
						t.Fatal(err)
					}
				}
				scan() // warm the pools
				const calls = 10
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range calls {
					scan()
				}
				runtime.ReadMemStats(&after)
				perCall := (after.TotalAlloc - before.TotalAlloc) / calls
				t.Logf("%d components: %d bytes allocated per scan", db.Stats().PrimaryComponents, perCall)
				if fmt.Sprint(got) != "[0 1 2 3 4]" {
					t.Fatalf("answered %v, want [0 1 2 3 4]", got)
				}
				if db.Stats().PrimaryComponents < 2 {
					t.Fatal("one component: the case measures nothing")
				}
				if raceEnabled {
					return
				}
				if perCall > 64<<10 {
					t.Errorf("%d bytes allocated per scan with limit %d, want at most 64 KiB", perCall, limit)
				}
			})
		}
	}
}

// TestConcurrentQueriesAnswerAlike: queries and filter scans running at
// once on a two-shard store each take their own recycled scratch, per-shard
// answers and arenas, so every answer equals the one the same query gets
// alone — embedded, through SecondaryQuery or SecondaryQueryWith, and
// served to concurrent clients, whose answers the server encodes from the
// recycled arenas.
func TestConcurrentQueriesAnswerAlike(t *testing.T) {
	opts := tinyOptions(lsmstore.Validation)
	opts.Shards = 2
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := range 3000 {
		id := uint64(i % 2400)
		if err := db.Upsert(tweetPK(id), tweetRec(id, uint32(i%60), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	type q struct {
		lo, hi uint32
		opts   lsmstore.QueryOptions
		scan   bool // a filter scan over creation times [lo, hi]
	}
	var qs []q
	for u := uint32(0); u < 60; u += 3 {
		qs = append(qs,
			q{lo: u, hi: u + u%7, opts: lsmstore.QueryOptions{Validation: lsmstore.DirectValidation}},
			q{lo: u, hi: u + 1, opts: lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation, IndexOnly: true}},
			q{lo: 600 + u*35, hi: 800 + u*35, scan: true})
	}
	// run answers x embedded; with picks SecondaryQueryWith over
	// SecondaryQuery.
	run := func(x q, with bool) string {
		var b strings.Builder
		var err error
		switch {
		case x.scan:
			err = db.FilterScan(int64(x.lo), int64(x.hi), func(pk, rec []byte) { fmt.Fprintf(&b, "%x=%x ", pk, rec) })
		case with:
			err = db.SecondaryQueryWith("user", workload.UserKey(x.lo), workload.UserKey(x.hi), x.opts, func(res *lsmstore.QueryResult) {
				renderAnswer(&b, res.Records, res.Keys)
			})
		default:
			var res *lsmstore.QueryResult
			if res, err = db.SecondaryQuery("user", workload.UserKey(x.lo), workload.UserKey(x.hi), x.opts); err == nil {
				renderAnswer(&b, res.Records, res.Keys)
			}
		}
		if err != nil {
			t.Error(err)
		}
		return b.String()
	}
	want := make([]string, len(qs))
	for i, x := range qs {
		if want[i] = run(x, false); want[i] == "" {
			t.Fatalf("query %d answered nothing; the case measures nothing", i)
		}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range qs {
				i := (j*7 + g*5) % len(qs)
				if got := run(qs[i], (g+j)%2 == 0); got != want[i] {
					t.Errorf("goroutine %d, query %d: a concurrent answer differs from the one it gets alone", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()

	srv, err := server.New(server.Config{DB: db, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Kill()
	serve := func(c *lsmclient.Client, x q) string {
		var b strings.Builder
		if x.scan {
			records, err := c.FilterScan(int64(x.lo), int64(x.hi), 0)
			if err != nil {
				t.Error(err)
			}
			renderAnswer(&b, records, nil)
			return b.String()
		}
		res, err := c.SecondaryQuery("user", workload.UserKey(x.lo), workload.UserKey(x.hi), x.opts)
		if err != nil {
			t.Error(err)
			return ""
		}
		renderAnswer(&b, res.Records, res.Keys)
		return b.String()
	}
	for g := range 4 {
		c, err := lsmclient.Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range qs {
				i := (j*5 + g*3) % len(qs)
				if got := serve(c, qs[i]); got != want[i] {
					t.Errorf("client %d, query %d: a served concurrent answer differs from the one the query gets alone", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// renderAnswer writes records and keys as hex.
func renderAnswer(b *strings.Builder, records []lsmstore.Record, keys [][]byte) {
	for _, r := range records {
		fmt.Fprintf(b, "%x=%x ", r.PK, r.Value)
	}
	for _, k := range keys {
		fmt.Fprintf(b, "%x ", k)
	}
}

// TestOwnedAnswerSurvivesRecycling: SecondaryQuery's answer is the
// caller's, so it stays byte for byte what it was while 1 000 concurrent
// SecondaryQueryWith calls and multi-shard filter scans reuse the recycled
// arenas the answer was first built in.
func TestOwnedAnswerSurvivesRecycling(t *testing.T) {
	opts := tinyOptions(lsmstore.Validation)
	opts.Shards = 2
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := range 2000 {
		id := uint64(i % 1600)
		if err := db.Upsert(tweetPK(id), tweetRec(id, uint32(i%40), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	direct := lsmstore.QueryOptions{Validation: lsmstore.DirectValidation}
	owned, err := db.SecondaryQuery("user", workload.UserKey(5), workload.UserKey(9), direct)
	if err != nil {
		t.Fatal(err)
	}
	if len(owned.Records) < 100 {
		t.Fatalf("%d records; the case measures nothing", len(owned.Records))
	}
	var snapshot [][]byte
	for i, r := range owned.Records {
		if sk, ok := workload.UserIDOf(r.Value); !ok || bytes.Compare(sk, workload.UserKey(5)) < 0 || bytes.Compare(sk, workload.UserKey(9)) > 0 {
			t.Fatalf("record %d of the owned answer is not a user 5-9 record: %x=%x", i, r.PK, r.Value)
		}
		snapshot = append(snapshot, bytes.Clone(r.PK), bytes.Clone(r.Value))
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range 250 {
				u := uint32(g*7+j) % 40
				if j%4 == 3 {
					if err := db.FilterScan(int64(j), int64(j+400), func(pk, rec []byte) {}); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if err := db.SecondaryQueryWith("user", workload.UserKey(u), workload.UserKey(u+4), direct, func(res *lsmstore.QueryResult) {
					if len(res.Records) == 0 {
						t.Error("a recycling query answered nothing")
					}
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, r := range owned.Records {
		if !bytes.Equal(r.PK, snapshot[2*i]) || !bytes.Equal(r.Value, snapshot[2*i+1]) {
			t.Fatalf("record %d of the owned answer changed while other queries recycled the arenas", i)
		}
	}
}

// TestDirectQueriesAllocateNoFrames: on a Validation store whose data
// exceed its buffer cache, Direct secondary queries miss on index leaves,
// internal pages and primary leaves all the time, yet once the cache is
// full every miss reads into a recycled frame — a whole one, or one of a
// small page's size class — so FrameAllocs stops growing after warm-up.
func TestDirectQueriesAllocateNoFrames(t *testing.T) {
	opts := tinyOptions(lsmstore.Validation)
	const frames = 32
	opts.CacheBytes = frames * int64(opts.PageSize)
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n, users = 12000, 40
	for i := range n + n/4 {
		id := uint64(i % n)
		if err := db.Upsert(tweetPK(id), tweetRec(id, uint32(i%users), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	qo := lsmstore.QueryOptions{Validation: lsmstore.DirectValidation}
	results := 0
	query := func(round int) {
		u := uint32(round*7) % users
		if err := db.SecondaryQueryWith("user", workload.UserKey(u), workload.UserKey(u+1), qo, func(res *lsmstore.QueryResult) {
			results += len(res.Records)
		}); err != nil {
			t.Fatal(err)
		}
	}
	for round := range 2 * users { // fill the cache and every free list
		query(round)
	}
	before := db.Stats().Counters
	results = 0
	for round := range 4 * users {
		query(round)
	}
	after := db.Stats().Counters
	misses, allocs := after.CacheMisses-before.CacheMisses, after.FrameAllocs-before.FrameAllocs
	t.Logf("%d queries, %d results: %d cache misses, %d frames reused, %d allocated",
		4*users, results, misses, after.FrameReuses-before.FrameReuses, allocs)
	if results < 4*n/users || misses < 4*users*frames {
		t.Fatalf("%d results over %d misses: the queries did not run past the %d-frame cache", results, misses, frames)
	}
	if allocs != 0 {
		t.Fatalf("%d frames allocated over %d misses after warm-up, want 0", allocs, misses)
	}
}
