package query

import (
	"testing"

	"repro/internal/core"
)

// queryDataset is a Validation dataset with several disk components and 50
// user ids over ~2 700 live records, so a one-user range has ~50 candidates.
func queryDataset(t testing.TB) *core.Dataset {
	d := newDataset(t, core.Validation, nil)
	applyWorkload(t, d, 7, 8000, 3000)
	return d
}

func rangeQuery(t testing.TB, d *core.Dataset, v ValidationMethod, lo, hi uint32) int {
	res, err := SecondaryRange(d, d.Secondary("user"), userKey(lo), userKey(hi),
		SecondaryQueryOptions{Validation: v, Lookup: DefaultLookupConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Records)
}

// TestSecondaryRangeAllocsDoNotScaleWithRecords: a query allocates only its
// answer. Its working memory (the merged iterator's sources and scans, the
// candidates and their keys, the fetch list, the lookup cursors) is a
// recycled scratch, and the answer's bytes live in one arena, so the count
// is the result, its records slice and the arena's chunks: the same small
// ceiling holds at two range widths whose answers differ ~7x in size, for
// Direct validation and for Timestamp validation, whose point lookups into
// the primary key index share the fetch's loop and cursors.
func TestSecondaryRangeAllocsDoNotScaleWithRecords(t *testing.T) {
	d := queryDataset(t)
	// Measured: 4 and 6 for both methods; Direct was 38 and 44 before the
	// scratch, 1 088 and 5 666 before the arena.
	const ceiling = 8
	for _, v := range []ValidationMethod{Direct, Timestamp} {
		for _, width := range []uint32{2, 16} {
			var records int
			allocs := testing.AllocsPerRun(20, func() { records = rangeQuery(t, d, v, 10, 10+width-1) })
			t.Logf("%v, width %d: %d records, %v allocations", v, width, records, allocs)
			if records <= 100 {
				t.Fatalf("%v, width %d: %d records; the case measures nothing", v, width, records)
			}
			if !raceEnabled && allocs > ceiling {
				t.Errorf("%v, width %d: %v allocations for %d records, ceiling %d", v, width, allocs, records, ceiling)
			}
		}
	}
}

func BenchmarkSecondaryRangeDirect(b *testing.B) {
	d := queryDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rangeQuery(b, d, Direct, 10, 11)
	}
}
