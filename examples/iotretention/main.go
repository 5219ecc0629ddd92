// Iotretention: an IoT time-series workload under the Mutable-bitmap
// strategy — devices continuously report readings keyed by device+sequence,
// a range filter on event time accelerates time-window scans, and a
// retention job deletes old readings. The Mutable-bitmap strategy keeps the
// filters tight (deletes flip bitmap bits instead of widening filters), so
// time-window queries stay fast on both recent and old data (Figure 19).
//
// Run with: go run ./examples/iotretention
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"repro/lsmstore"
)

// Reading record: eventTime(8) | deviceID(4) | value(8).
func record(eventTime int64, device uint32, value float64) []byte {
	rec := make([]byte, 20)
	binary.BigEndian.PutUint64(rec, uint64(eventTime))
	binary.BigEndian.PutUint32(rec[8:], device)
	binary.BigEndian.PutUint64(rec[12:], uint64(int64(value*1000)))
	return rec
}

func eventTime(rec []byte) (int64, bool) {
	if len(rec) < 8 {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(rec)), true
}

func device(rec []byte) ([]byte, bool) {
	if len(rec) < 12 {
		return nil, false
	}
	return rec[8:12], true
}

func pk(device uint32, seq uint64) []byte {
	b := make([]byte, 12)
	binary.BigEndian.PutUint32(b, device)
	binary.BigEndian.PutUint64(b[4:], seq)
	return b
}

func main() {
	db, err := lsmstore.Open(lsmstore.Options{
		Strategy:      lsmstore.MutableBitmap,
		Secondaries:   []lsmstore.SecondaryIndex{{Name: "device", Extract: device}},
		FilterExtract: eventTime,
		MemoryBudget:  256 << 10,
		CacheBytes:    8 << 20,
		PageSize:      16 << 10,
		Seed:          11,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// 40 devices, 600 readings each, one reading per tick.
	const devices, readings = 40, 600
	tick := int64(0)
	for seq := uint64(0); seq < readings; seq++ {
		for d := uint32(0); d < devices; d++ {
			tick++
			if err := db.Upsert(pk(d, seq), record(tick, d, float64(d)*0.5)); err != nil {
				log.Fatal(err)
			}
		}
	}
	total := int64(devices * readings)
	fmt.Printf("ingested %d readings, simulated %s\n", total, db.Stats().SimulatedTime)

	// Time-window query on recent data: range filters prune every
	// component except the ones covering the last 5% of time.
	recentLo := tick - tick/20
	count := 0
	if err := db.FilterScan(recentLo, tick, func(_, _ []byte) { count++ }); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recent window [%d,%d]: %d readings\n", recentLo, tick, count)

	// Retention: delete the oldest 25% of readings (per-key deletes; the
	// Mutable-bitmap strategy flips bits on immutable components through
	// the primary key index, no record reads).
	cutoffSeq := uint64(readings / 4)
	deleted := 0
	for seq := uint64(0); seq < cutoffSeq; seq++ {
		for d := uint32(0); d < devices; d++ {
			ok, err := db.Delete(pk(d, seq))
			if err != nil {
				log.Fatal(err)
			}
			if ok {
				deleted++
			}
		}
	}
	fmt.Printf("retention deleted %d readings\n", deleted)

	// Old-window scan: despite the deletes, filters still prune — the
	// Validation strategy would have to read every newer component here.
	oldHi := tick / 4
	count = 0
	if err := db.FilterScan(0, oldHi, func(_, _ []byte) { count++ }); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("old window [0,%d]: %d readings survive retention\n", oldHi, count)

	// Per-device drill-down through the secondary index.
	res, err := db.SecondaryQuery("device", devKey(7), devKey(7),
		lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device 7 has %d live readings\n", len(res.Records))
}

func devKey(d uint32) []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, d)
	return b
}
