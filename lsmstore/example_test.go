package lsmstore_test

import (
	"encoding/binary"
	"fmt"
	"log"

	"repro/lsmstore"
)

// userRecord encodes a minimal record: 8-byte timestamp + location string.
func userRecord(location string, year int64) []byte {
	rec := make([]byte, 8, 8+len(location))
	binary.BigEndian.PutUint64(rec, uint64(year))
	return append(rec, location...)
}

func userLocation(rec []byte) ([]byte, bool) {
	if len(rec) < 8 {
		return nil, false
	}
	return rec[8:], true
}

func userYear(rec []byte) (int64, bool) {
	if len(rec) < 8 {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(rec)), true
}

func userPK(id uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, id)
	return b
}

// Example reproduces the paper's Figure 2-3 running example end to end.
func Example() {
	db, err := lsmstore.Open(lsmstore.Options{
		Strategy:      lsmstore.Eager,
		Secondaries:   []lsmstore.SecondaryIndex{{Name: "location", Extract: userLocation}},
		FilterExtract: userYear,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	db.Upsert(userPK(101), userRecord("CA", 2015))
	db.Upsert(userPK(102), userRecord("CA", 2016))
	db.Upsert(userPK(103), userRecord("MA", 2017))
	db.Upsert(userPK(101), userRecord("NY", 2018)) // Figure 3's upsert

	res, _ := db.SecondaryQuery("location", []byte("CA"), []byte("CA"), lsmstore.QueryOptions{})
	for _, r := range res.Records {
		fmt.Printf("user %d is in CA\n", binary.BigEndian.Uint64(r.PK))
	}
	// Output: user 102 is in CA
}

// ExampleDB_FilterScan shows component-level pruning with a range filter.
func ExampleDB_FilterScan() {
	db, _ := lsmstore.Open(lsmstore.Options{
		Strategy:      lsmstore.MutableBitmap,
		FilterExtract: userYear,
	})
	defer db.Close()
	for y := int64(2010); y <= 2020; y++ {
		db.Upsert(userPK(uint64(y)), userRecord("CA", y))
	}
	count := 0
	db.FilterScan(2015, 2017, func(pk, rec []byte) { count++ })
	fmt.Println(count, "records in [2015, 2017]")
	// Output: 3 records in [2015, 2017]
}

// ExampleDB_Recover demonstrates crash recovery from the write-ahead log.
func ExampleDB_Recover() {
	db, _ := lsmstore.Open(lsmstore.Options{Strategy: lsmstore.Validation})
	defer db.Close()
	db.Upsert(userPK(1), userRecord("CA", 2015))
	db.Flush() // durable in a disk component
	db.Upsert(userPK(2), userRecord("NY", 2016))

	db.Crash() // memory components lost
	_, found, _ := db.Get(userPK(2))
	fmt.Println("after crash, record 2 found:", found)

	db.Recover() // replays the committed upsert of record 2
	_, found, _ = db.Get(userPK(2))
	fmt.Println("after recovery, record 2 found:", found)
	// Output:
	// after crash, record 2 found: false
	// after recovery, record 2 found: true
}

// ExampleQueryOptions shows Timestamp validation: a secondary entry that a
// later upsert made obsolete is not returned.
func ExampleQueryOptions() {
	db, _ := lsmstore.Open(lsmstore.Options{
		Strategy:    lsmstore.Validation,
		Secondaries: []lsmstore.SecondaryIndex{{Name: "location", Extract: userLocation}},
	})
	defer db.Close()
	db.Upsert(userPK(1), userRecord("CA", 2015))
	db.Flush()
	db.Upsert(userPK(1), userRecord("NY", 2016)) // obsolete (CA,1) remains on disk
	db.Flush()

	res, _ := db.SecondaryQuery("location", []byte("CA"), []byte("CA"), lsmstore.QueryOptions{
		Validation: lsmstore.TimestampValidation, // (CA,1) is older than pk 1's newest record
	})
	fmt.Println(len(res.Records), "records in CA")
	// Output: 0 records in CA
}
