package lsmstore_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/lsm"
	"repro/internal/storetest"
	"repro/lsmstore"
)

// memImage lists a tree's memory component entry for entry.
func memImage(tr *lsm.Tree) []string {
	var out []string
	it := tr.Mem().NewIterator(nil, nil)
	for e, ok := it.Next(); ok; e, ok = it.Next() {
		out = append(out, fmt.Sprintf("key=%x ts=%d anti=%v value=%x", e.Key, e.TS, e.Anti, e.Value))
	}
	return out
}

// TestReplayMatchesLive is the store-level twin of the internal/core test
// of the same name, over the served recovery path: a two-shard file-backend
// store takes a seeded stream of batches and single writes (the tiny memory
// budget flushes and merges along the way), is killed, and its crash image
// is reopened — manifest restore plus a replay of the log files. Shard by
// shard, the reopened store must hold the live store's memory image in
// every index, its bitmap bits in every component (under Mutable-bitmap
// the flips since the last manifest save exist only as update bits in the
// log), and its deleted-key bookkeeping.
func TestReplayMatchesLive(t *testing.T) {
	const nIDs = 3000
	for _, strat := range []lsmstore.Strategy{lsmstore.Eager, lsmstore.Validation, lsmstore.MutableBitmap, lsmstore.DeletedKey} {
		t.Run(strat.String(), func(t *testing.T) {
			opts := diskOptions(strat, t.TempDir())
			opts.Shards = 2
			live, err := lsmstore.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer live.Close()

			rng := rand.New(rand.NewSource(83))
			mutation := func(i int) lsmstore.Mutation {
				id := uint64(rng.Intn(nIDs))
				m := lsmstore.Mutation{Op: lsmstore.Op(rng.Intn(3)), PK: tweetPK(id)}
				if m.Op != lsmstore.OpDelete {
					m.Record = tweetRec(id, uint32(rng.Intn(40)), int64(i))
				}
				return m
			}
			for i := 0; i < 5000; {
				if rng.Intn(4) == 0 {
					m := mutation(i)
					i++
					switch m.Op {
					case lsmstore.OpUpsert:
						err = live.Upsert(m.PK, m.Record)
					case lsmstore.OpInsert:
						_, err = live.Insert(m.PK, m.Record)
					case lsmstore.OpDelete:
						_, err = live.Delete(m.PK)
					}
				} else {
					batch := make([]lsmstore.Mutation, 16)
					for j := range batch {
						batch[j] = mutation(i)
						i++
					}
					err = live.ApplyBatch(batch)
				}
				if err != nil {
					t.Fatal(err)
				}
			}

			re, _ := storetest.KillAndReopen(t, opts.Dir, opts)
			defer re.Close()

			for s := 0; s < live.NumShards(); s++ {
				want, got := live.Shard(s), re.Shard(s)
				if want.Primary().NumDiskComponents() == 0 || want.Primary().Mem().Len() == 0 {
					t.Fatalf("setup: shard %d has %d disk components and %d memory entries; the stream must leave both",
						s, want.Primary().NumDiskComponents(), want.Primary().Mem().Len())
				}
				wantTrees := []*lsm.Tree{want.Primary(), want.PKIndex()}
				gotTrees := []*lsm.Tree{got.Primary(), got.PKIndex()}
				for i, si := range want.Secondaries() {
					wantTrees = append(wantTrees, si.Tree)
					gotTrees = append(gotTrees, got.Secondaries()[i].Tree)
				}
				for i, tr := range wantTrees {
					w, g := memImage(tr), memImage(gotTrees[i])
					if len(g) != len(w) {
						t.Errorf("shard %d tree %d: reopened memory component holds %d entries, live %d", s, i, len(g), len(w))
					}
					for j := 0; j < len(w) && j < len(g); j++ {
						if g[j] != w[j] {
							t.Errorf("shard %d tree %d entry %d:\n reopened %s\n live     %s", s, i, j, g[j], w[j])
							break
						}
					}
					wc, gc := tr.Components(), gotTrees[i].Components()
					if len(gc) != len(wc) {
						t.Fatalf("shard %d tree %d: %d components reopened, %d live", s, i, len(gc), len(wc))
					}
					for j := range wc {
						if gc[j].Valid.Count() != wc[j].Valid.Count() {
							t.Errorf("shard %d tree %d component %d: %d bitmap bits reopened, %d live",
								s, i, j, gc[j].Valid.Count(), wc[j].Valid.Count())
						}
					}
				}
				for i, si := range want.Secondaries() {
					for id := uint64(0); id < nIDs; id++ {
						if w, g := si.MemDeletedAfter(tweetPK(id), -1), got.Secondaries()[i].MemDeletedAfter(tweetPK(id), -1); g != w {
							t.Errorf("shard %d secondary %d: key %d in the deleted-key set: reopened %v, live %v", s, i, id, g, w)
						}
					}
				}
			}

			ids := make([]uint64, nIDs)
			for i := range ids {
				ids[i] = uint64(i)
			}
			if w, g := storeImage(t, live, ids, validationFor(strat)), storeImage(t, re, ids, validationFor(strat)); g != w {
				t.Fatal("reopened store answers differently from the live one")
			}
		})
	}
}
