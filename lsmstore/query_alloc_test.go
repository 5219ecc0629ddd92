package lsmstore_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
	"repro/lsmstore"
)

// TestSecondaryQueryAllocations: a secondary query allocates only its
// answer. The merged iterator's sources, the B+-tree scans, the candidates
// and the lookup cursors live in a recycled per-query scratch, and the
// shards answer into recycled per-shard slices, so the count is the merged
// answer (the result and its records or keys slice), one arena per shard
// holding the answer's bytes, and the fan-out's own few objects. It does not
// grow with the number of components the query reads.
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
				// The second load adds components but nothing the query returns.
				load(0, 0, 3000)
				before, compsBefore := testing.AllocsPerRun(100, q), db.Stats().PrimaryComponents
				load(1<<20, 1000, 6000)
				after, compsAfter := testing.AllocsPerRun(100, q), db.Stats().PrimaryComponents
				t.Logf("%d results: %.1f allocations over %d primary components, %.1f over %d",
					results, before, compsBefore, after, compsAfter)
				if results < 100 || compsAfter <= compsBefore {
					t.Fatalf("%d results, components %d then %d: the case measures nothing", results, compsBefore, compsAfter)
				}
				if raceEnabled {
					return
				}
				if ceiling := float64(4 + 3*shards); before > ceiling || after > before {
					t.Errorf("%.1f allocations per query, then %.1f over more components; want at most %.0f, not growing", before, after, ceiling)
				}
			})
		}
	}
}

// TestConcurrentQueriesAnswerAlike: queries running at once on a two-shard
// store each take their own recycled scratch and per-shard answers, so
// every answer equals the one the same query gets alone, index-only or not.
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
	render := func(res *lsmstore.QueryResult) string {
		var b strings.Builder
		for _, r := range res.Records {
			fmt.Fprintf(&b, "%x=%x ", r.PK, r.Value)
		}
		for _, k := range res.Keys {
			fmt.Fprintf(&b, "%x ", k)
		}
		return b.String()
	}
	type q struct {
		lo, hi uint32
		opts   lsmstore.QueryOptions
	}
	var qs []q
	for u := uint32(0); u < 60; u += 3 {
		qs = append(qs,
			q{u, u + u%7, lsmstore.QueryOptions{Validation: lsmstore.DirectValidation}},
			q{u, u + 1, lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation, IndexOnly: true}})
	}
	run := func(x q) string {
		res, err := db.SecondaryQuery("user", workload.UserKey(x.lo), workload.UserKey(x.hi), x.opts)
		if err != nil {
			t.Error(err)
			return ""
		}
		return render(res)
	}
	want := make([]string, len(qs))
	for i, x := range qs {
		if want[i] = run(x); want[i] == "" {
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
				if got := run(qs[i]); got != want[i] {
					t.Errorf("goroutine %d, query %d: a concurrent answer differs from the one it gets alone", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
