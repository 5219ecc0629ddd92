package query

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/lsm"
)

// TestCrackOnValidateKeepsAnswersCorrect drives the query-driven
// maintenance extension: cracking must never change query answers, across
// interleaved queries, writes, flushes and merges.
func TestCrackOnValidateKeepsAnswersCorrect(t *testing.T) {
	d := newDataset(t, core.Validation, nil)
	model := applyWorkload(t, d, 55, 5000, 700)
	si := d.Secondary("user")
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 10; round++ {
		// Interleave writes so every round sees fresh obsolescence.
		for i := 0; i < 200; i++ {
			pk := uint64(rng.Intn(700))
			u := uint32(rng.Intn(50))
			if err := d.Upsert(kv.EncodeUint64(pk), mkRecord(u, int64(1000+round), 40)); err != nil {
				t.Fatal(err)
			}
			model[pk] = modelRow{user: u, creation: int64(1000 + round)}
		}
		lo := uint32(rng.Intn(45))
		hi := lo + uint32(rng.Intn(5))
		want := modelAnswer(model, lo, hi)
		for _, crack := range []bool{true, false, true} {
			res, err := SecondaryRange(d, si, userKey(lo), userKey(hi), SecondaryQueryOptions{
				Validation:      Timestamp,
				Lookup:          DefaultLookupConfig(),
				CrackOnValidate: crack,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := pksOfRecords(res.Records)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d crack=%v: got %v want %v", round, crack, got, want)
			}
		}
	}
}

// TestCrackingReducesRevalidation verifies the intended effect: after a
// cracking query, a repeat of the same query finds the cracked entries
// already filtered at the scan and therefore issues fewer validation
// lookups against the primary key index.
func TestCrackingReducesRevalidation(t *testing.T) {
	d := newDataset(t, core.Validation, nil)
	// Phase 1: 3000 records for users 0-9, flushed to disk.
	for pk := uint64(0); pk < 3000; pk++ {
		if err := d.Upsert(kv.EncodeUint64(pk), mkRecord(uint32(pk%10), int64(pk), 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Phase 2: move every record to users 10-19; the old entries on disk
	// are now obsolete and only validation can tell.
	for pk := uint64(0); pk < 3000; pk++ {
		if err := d.Upsert(kv.EncodeUint64(pk), mkRecord(uint32(10+pk%10), int64(10000+pk), 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	si := d.Secondary("user")
	env := d.Env()

	run := func(crack bool) (int64, []uint64) {
		env.Counters.Reset()
		res, err := SecondaryRange(d, si, userKey(0), userKey(9), SecondaryQueryOptions{
			Validation:      Timestamp,
			Lookup:          DefaultLookupConfig(),
			CrackOnValidate: crack,
		})
		if err != nil {
			t.Fatal(err)
		}
		return env.Counters.PointLookups.Load(), pksOfRecords(res.Records)
	}
	lookups1, ans1 := run(true)
	lookups2, ans2 := run(false)
	if len(ans1) != 0 {
		t.Fatalf("query for users 0-9 should be empty, got %d", len(ans1))
	}
	if fmt.Sprint(ans1) != fmt.Sprint(ans2) {
		t.Fatal("cracking changed the answer")
	}
	if lookups2 >= lookups1 {
		t.Fatalf("second query issued %d validation lookups, first %d; cracking should shrink them",
			lookups2, lookups1)
	}
	var cracked int64
	for _, c := range si.Tree.Components() {
		cracked += c.CrackedCount()
	}
	if cracked == 0 {
		t.Fatal("no entries were cracked")
	}
	// Cracked entries are physically removed by the next merge, and the
	// answer is unchanged.
	n := si.Tree.NumDiskComponents()
	if n >= 2 {
		res, err := si.Tree.Merge(lsm.MergeSpec{Lo: 0, Hi: n, DropAnti: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := si.Tree.Install(res); err != nil {
			t.Fatal(err)
		}
		lookups3, ans3 := run(false)
		if fmt.Sprint(ans3) != fmt.Sprint(ans2) {
			t.Fatal("merge after cracking changed the answer")
		}
		if lookups3 > lookups2 {
			t.Fatalf("post-merge validation lookups grew: %d > %d", lookups3, lookups2)
		}
	}
}
