package lsmclient

import (
	"fmt"
	"testing"

	"repro/internal/server"
	"repro/internal/storetest"
	"repro/internal/workload"
	"repro/lsmstore"
)

// TestQueryRoundTripAllocations counts the whole process — client and
// server share it — per SECONDARY_QUERY and FILTER_SCAN round trip against
// an in-process server of one and of two shards. The server allocates
// nothing: the engine's working memory is a recycled scratch, the shards
// answer into recycled slices and arenas, and the merged answer is encoded
// into the pooled response frame from inside SecondaryQueryWith's or
// FilterScanWith's callback. What is left is the client's decoded answer,
// however many records come back: its response's backing buffer and
// records slice, plus a query's result. Counts are logged, not checked,
// under -race, where sync.Pool drops Puts at random.
func TestQueryRoundTripAllocations(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { queryRoundTripAllocations(t, shards) })
	}
}

func queryRoundTripAllocations(t *testing.T, shards int) {
	opts := storetest.BaseOptions(lsmstore.Validation)
	opts.Shards = shards
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
	t.Cleanup(func() {
		srv.Kill()
		db.Close()
	})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 4000
	for i := range n {
		id := uint64(i)
		if err := c.Upsert(storetest.TweetPK(id), storetest.TweetRec(id, uint32(i%40), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		fn   func() int
		max  float64
	}{
		{"SecondaryQuery", func() int {
			res, err := c.SecondaryQuery("user", workload.UserKey(10), workload.UserKey(14),
				lsmstore.QueryOptions{Validation: lsmstore.DirectValidation})
			if err != nil {
				t.Fatal(err)
			}
			return len(res.Records)
		}, 3},
		{"FilterScan", func() int {
			records, err := c.FilterScan(n-400, n, 300)
			if err != nil {
				t.Fatal(err)
			}
			return len(records)
		}, 2},
	} {
		records := tc.fn() // fills the pools and the worker
		allocs := testing.AllocsPerRun(100, func() { tc.fn() })
		t.Logf("%s round trip: %d records, %v allocations", tc.name, records, allocs)
		if records < 250 {
			t.Fatalf("%s: %d records; the case measures nothing", tc.name, records)
		}
		if !raceEnabled && allocs > tc.max {
			t.Errorf("%s round trip: %v allocations for %d records, want <= %v", tc.name, allocs, records, tc.max)
		}
	}
}
