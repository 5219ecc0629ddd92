// Quickstart: open a store, ingest a few user-location records, and query
// them through a secondary index and a range filter.
//
// This walks the paper's running example (Figure 2): a UserLocation dataset
// with UserID as the primary key, a secondary index on Location, and a
// range filter on Time.
//
// Run with: go run ./examples/quickstart
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"repro/lsmstore"
)

// A record is Time(8 bytes, big endian) followed by the Location string.
func record(location string, year int64) []byte {
	rec := make([]byte, 8, 8+len(location))
	binary.BigEndian.PutUint64(rec, uint64(year))
	return append(rec, location...)
}

func location(rec []byte) ([]byte, bool) {
	if len(rec) < 8 {
		return nil, false
	}
	return rec[8:], true
}

func year(rec []byte) (int64, bool) {
	if len(rec) < 8 {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(rec)), true
}

func pk(userID uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, userID)
	return b
}

func main() {
	db, err := lsmstore.Open(lsmstore.Options{
		Strategy:      lsmstore.Eager,
		Secondaries:   []lsmstore.SecondaryIndex{{Name: "location", Extract: location}},
		FilterExtract: year,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Figure 2's initial data.
	must(db.Upsert(pk(101), record("CA", 2015)))
	must(db.Upsert(pk(102), record("CA", 2016)))
	must(db.Upsert(pk(103), record("MA", 2017)))

	// Figure 3's upsert: user 101 moves to NY in 2018.
	must(db.Upsert(pk(101), record("NY", 2018)))

	// Q1: who is in CA? Only user 102 — the Eager strategy cleaned the
	// old (CA, 101) entry with an anti-matter entry.
	res, err := db.SecondaryQuery("location", []byte("CA"), []byte("CA"), lsmstore.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Q1: users in CA:")
	for _, r := range res.Records {
		loc, _ := location(r.Value)
		y, _ := year(r.Value)
		fmt.Printf("  user %d: %s since %d\n", binary.BigEndian.Uint64(r.PK), loc, y)
	}

	// Q2: whose last known location predates 2017? The range filter
	// prunes components that cannot contain such records.
	fmt.Println("Q2: records with Time < 2017:")
	err = db.FilterScan(0, 2016, func(key, rec []byte) {
		loc, _ := location(rec)
		y, _ := year(rec)
		fmt.Printf("  user %d: %s, %d\n", binary.BigEndian.Uint64(key), loc, y)
	})
	if err != nil {
		log.Fatal(err)
	}

	// Point read.
	rec, found, err := db.Get(pk(101))
	if err != nil || !found {
		log.Fatal("user 101 missing", err)
	}
	loc, _ := location(rec)
	fmt.Printf("user 101 is now in %s\n", loc)

	st := db.Stats()
	fmt.Printf("stats: %d writes, simulated time %s\n", st.Ingested, st.SimulatedTime)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
