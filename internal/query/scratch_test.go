package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kv"
)

// render prints an answer in primary-key order, every byte of it.
func render(res *SecondaryResult) string {
	var lines []string
	for _, e := range res.Records {
		lines = append(lines, fmt.Sprintf("%x@%d=%x", e.Key, e.TS, e.Value))
	}
	for _, k := range res.Keys {
		lines = append(lines, fmt.Sprintf("%x", k))
	}
	slices.Sort(lines)
	return strings.Join(lines, " ")
}

// TestRecycledScratchAnswersLikeAFreshOne: one scratch, reset between
// queries of every validation method and lookup plan and filter scans, wide
// ranges before narrow ones, answers exactly what a fresh scratch answers; a
// reset leaves no reference into the query's data behind (the point
// lookup's cursors are checked where they live, by lsm's
// TestResetLookupsReferenceNoComponent);
// and no answer aliases the scratch: it reads the same after later queries
// have reused it.
func TestRecycledScratchAnswersLikeAFreshOne(t *testing.T) {
	d := newDataset(t, core.Validation, nil)
	applyWorkload(t, d, 11, 6000, 800)
	si := d.Secondary("user")
	naive := DefaultLookupConfig()
	naive.BatchMemory = 0
	plans := []SecondaryQueryOptions{
		{Validation: Direct, Lookup: DefaultLookupConfig()},
		{Validation: Direct, Lookup: naive},
		{Validation: Timestamp, Lookup: DefaultLookupConfig()},
		{Validation: Timestamp, IndexOnly: true},
		{Validation: Timestamp, IndexOnly: true, Lookup: naive},
		{Validation: NoValidation, IndexOnly: true},
	}
	type kept struct {
		res  *SecondaryResult
		want string
	}
	var answers []kept
	rng := rand.New(rand.NewSource(3))
	reused := new(scratch)
	for trial := range 40 {
		lo := uint32(rng.Intn(45))
		hi := lo + uint32(20-trial/2) // wide before narrow
		if trial%2 == 1 {
			hi = lo
		}
		opts := plans[trial%len(plans)]
		want, got := new(SecondaryResult), new(SecondaryResult)
		if err := new(scratch).secondaryRange(want, new(kv.Arena), d, si, userKey(lo), userKey(hi), opts); err != nil {
			t.Fatal(err)
		}
		if err := reused.secondaryRange(got, new(kv.Arena), d, si, userKey(lo), userKey(hi), opts); err != nil {
			t.Fatal(err)
		}
		reused.reset()
		if g, w := render(got), render(want); g != w {
			t.Fatalf("trial %d %+v: the recycled scratch answers\n%s\na fresh one\n%s", trial, opts, g, w)
		}
		if len(got.Records)+len(got.Keys) == 0 {
			t.Fatalf("trial %d: empty answer measures nothing", trial)
		}
		answers = append(answers, kept{got, render(want)})
		flo := int64(13000 + rng.Intn(2500)) // recent: older records are mostly superseded
		fhi := flo + int64(2000-trial*40)
		wantScan := scanImage(t, new(scratch), d, flo, fhi)
		gotScan := scanImage(t, reused, d, flo, fhi)
		reused.reset()
		if gotScan != wantScan || gotScan == "" {
			t.Fatalf("trial %d: the recycled scratch's filter scan [%d,%d] reads\n%.300s\na fresh one\n%.300s",
				trial, flo, fhi, gotScan, wantScan)
		}
		for name, s := range map[string]any{
			"candidates":             reused.cands[:cap(reused.cands)],
			"fetch keys":             reused.keys[:cap(reused.keys)],
			"filter-scan components": reused.comps[:cap(reused.comps)],
			"filter-scan memtables":  reused.mems[:cap(reused.mems)],
		} {
			if !allZero(s) {
				t.Fatalf("trial %d: the reset scratch's %s still reference the query's data", trial, name)
			}
		}
	}
	if cap(reused.comps) == 0 || cap(reused.mems) == 0 {
		t.Fatal("setup: the filter scans picked no disk component or no memtable")
	}
	for i, a := range answers {
		if got := render(a.res); got != a.want {
			t.Fatalf("answer %d changed after the scratch was reused:\n%s\nwas\n%s", i, got, a.want)
		}
	}
}

// scanImage renders every record a filter scan over [lo, hi] emits on sc.
func scanImage(t *testing.T, sc *scratch, d *core.Dataset, lo, hi int64) string {
	t.Helper()
	var lines []string
	err := sc.filterScan(d, lo, hi, func(e kv.Entry) {
		lines = append(lines, fmt.Sprintf("%x@%d=%x", e.Key, e.TS, e.Value))
	})
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(lines, " ")
}

// allZero reports whether every element of the slice s is its zero value.
func allZero(s any) bool {
	v := reflect.ValueOf(s)
	for i := range v.Len() {
		if !v.Index(i).IsZero() {
			return false
		}
	}
	return true
}
