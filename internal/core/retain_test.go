package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/storage"
)

// locationOf extracts the secondary key of a test record: 8 bytes of year,
// then the location.
func locationOf(rec []byte) ([]byte, bool) {
	if len(rec) < 8 {
		return nil, false
	}
	return rec[8:], true
}

func yearOf(rec []byte) (int64, bool) {
	if len(rec) < 8 {
		return 0, false
	}
	return int64(kv.DecodeUint64(rec)), true
}

// scribbler applies mutations out of two buffers it overwrites with garbage
// the moment Apply returns — what a server does when it recycles a receive
// buffer — and remembers what the dataset should now hold.
type scribbler struct {
	t        *testing.T
	d        *core.Dataset
	pk, rec  []byte
	expected map[uint64][]byte // id -> record
}

func (s *scribbler) apply(op kv.Op, id uint64, loc string, year uint64) {
	s.t.Helper()
	s.pk = kv.AppendUint64(s.pk[:0], id)
	s.rec = s.rec[:0]
	if op != kv.OpDelete {
		s.rec = append(kv.AppendUint64(s.rec, year), loc...)
	}
	_, wasThere := s.expected[id]
	applied, err := s.d.Apply(kv.Mutation{Op: op, PK: s.pk, Record: s.rec}, nil)
	if err != nil {
		s.t.Fatalf("op %d on %d: %v", op, id, err)
	}
	switch op {
	case kv.OpUpsert:
		s.expected[id] = bytes.Clone(s.rec)
	case kv.OpInsert:
		if applied == wasThere {
			s.t.Fatalf("insert of %d: applied=%v, was there=%v", id, applied, wasThere)
		}
		if applied {
			s.expected[id] = bytes.Clone(s.rec)
		}
	case kv.OpDelete: // blind under Validation and Deleted-key: applied says nothing
		delete(s.expected, id)
	}
	for i := range s.pk {
		s.pk[i] = 0xA5
	}
	for i := range s.rec {
		s.rec[i] = 0x5A
	}
}

// check reads every key back and runs a validated secondary query per
// location: both must return exactly the bytes that were applied.
func (s *scribbler) check(stage string, validation query.ValidationMethod) {
	s.t.Helper()
	byLoc := map[string][]uint64{}
	for id := uint64(0); id < 80; id++ {
		var got []byte
		found, err := s.d.Primary().Get(kv.EncodeUint64(id), func(e kv.Entry) { got = bytes.Clone(e.Value) })
		if err != nil {
			s.t.Fatalf("%s: Get(%d): %v", stage, id, err)
		}
		want, ok := s.expected[id]
		if found != ok || (found && !bytes.Equal(got, want)) {
			s.t.Fatalf("%s: Get(%d) = %q, %v; want %q, %v", stage, id, got, found, want, ok)
		}
		if ok {
			byLoc[string(want[8:])] = append(byLoc[string(want[8:])], id)
		}
	}
	si := s.d.Secondary("location")
	for l := 0; l < 6; l++ {
		loc := fmt.Sprintf("L%d", l)
		res, err := query.SecondaryRange(s.d, si, []byte(loc), []byte(loc), query.SecondaryQueryOptions{
			Validation: validation,
			Lookup:     query.DefaultLookupConfig(),
		})
		if err != nil {
			s.t.Fatalf("%s: query %s: %v", stage, loc, err)
		}
		var got []uint64
		for _, r := range res.Records {
			id := kv.DecodeUint64(r.Key)
			if len(r.Key) != 8 || !bytes.Equal(r.Value, s.expected[id]) {
				s.t.Fatalf("%s: query %s returned %x = %q, want %q", stage, loc, r.Key, r.Value, s.expected[id])
			}
			got = append(got, id)
		}
		slices.Sort(got)
		if !slices.Equal(got, byLoc[loc]) {
			s.t.Fatalf("%s: query %s returned ids %v, want %v", stage, loc, got, byLoc[loc])
		}
	}
}

// TestApplyRetainsNoCallerBytes holds every strategy to Apply's contract:
// nothing the dataset keeps — memory components, log, lock table, deleted-
// key sets, forwarded deletes — aliases the mutation's buffers. Whatever is
// read back from memory, from flushed components, or from a log replay
// after a crash must be the bytes as they were when Apply was called.
func TestApplyRetainsNoCallerBytes(t *testing.T) {
	for _, tc := range []struct {
		strategy   core.Strategy
		validation query.ValidationMethod
	}{
		{core.Eager, query.NoValidation},
		{core.Validation, query.Timestamp},
		{core.MutableBitmap, query.Direct},
		{core.DeletedKey, query.DeletedKeyCheck},
	} {
		t.Run(tc.strategy.String(), func(t *testing.T) {
			store := storage.NewStore(storage.NewDisk(storage.ScaledHDD(4096)), 1<<30, metrics.NopEnv())
			d, err := core.Open(core.Config{
				Store:         store,
				Strategy:      tc.strategy,
				Secondaries:   []core.SecondarySpec{{Name: "location", Extract: locationOf}},
				FilterExtract: yearOf,
				MemoryBudget:  1 << 20,
				UsePKIndex:    true,
				BloomFPR:      0.01,
				Seed:          7,
			})
			if err != nil {
				t.Fatal(err)
			}
			s := &scribbler{t: t, d: d, expected: map[uint64][]byte{}}
			loc := func(i uint64) string { return fmt.Sprintf("L%d", i%6) }

			for id := uint64(0); id < 50; id++ {
				s.apply(kv.OpInsert, id, loc(id), 2000+id)
			}
			s.check("memory only", tc.validation)
			if err := d.FlushAll(); err != nil {
				t.Fatal(err)
			}
			// Writes over flushed versions: Eager reads the old record,
			// Mutable-bitmap flips disk bits, Deleted-key fills its set.
			for id := uint64(0); id < 20; id++ {
				s.apply(kv.OpUpsert, id, loc(id+1), 2100+id)
			}
			for id := uint64(40); id < 46; id++ {
				s.apply(kv.OpDelete, id, "", 0)
			}
			s.apply(kv.OpDelete, 70, "", 0)       // missing: ignored
			s.apply(kv.OpInsert, 5, loc(3), 2200) // duplicate: ignored
			for id := uint64(50); id < 60; id++ {
				s.apply(kv.OpInsert, id, loc(id), 2000+id)
			}
			for id := uint64(50); id < 55; id++ { // overwrite in the memory component
				s.apply(kv.OpUpsert, id, loc(id+2), 2300+id)
			}
			s.check("memory over disk", tc.validation)
			if err := d.FlushAll(); err != nil {
				t.Fatal(err)
			}
			s.check("flushed", tc.validation)

			// These live in the memory components and the log only; the
			// crash drops the former, the replay reads the latter.
			for id := uint64(20); id < 30; id++ {
				s.apply(kv.OpUpsert, id, loc(id+3), 2400+id)
			}
			for id := uint64(46); id < 49; id++ {
				s.apply(kv.OpDelete, id, "", 0)
			}
			for id := uint64(60); id < 66; id++ {
				s.apply(kv.OpInsert, id, loc(id), 2000+id)
			}
			d.Crash()
			if err := d.Recover(); err != nil {
				t.Fatal(err)
			}
			s.check("replayed", tc.validation)
		})
	}
}
