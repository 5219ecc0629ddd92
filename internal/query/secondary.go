package query

import (
	"slices"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/lsm"
)

// ValidationMethod selects the Figure 5 validation variant.
type ValidationMethod int

// Validation methods.
const (
	// NoValidation trusts the secondary index (Eager strategy: indexes are
	// always up to date).
	NoValidation ValidationMethod = iota
	// Direct fetches candidate records and re-checks the search condition
	// (Figure 5a). It cannot serve index-only queries.
	Direct
	// Timestamp probes the primary key index: a key is invalid when the
	// same key exists there with a larger timestamp (Figure 5b).
	Timestamp
	// DeletedKeyCheck validates against the deleted-key B+-trees attached
	// to secondary components (the AsterixDB baseline of Section 4.1):
	// a key is invalid when a same-or-newer component's deleted-key tree
	// holds it with a larger timestamp. Supports index-only queries
	// without the primary key index, at the cost of per-component trees.
	DeletedKeyCheck
)

// Valid reports whether v names a defined validation method. Boundary
// layers (the network server) use it so the accepted range cannot drift
// from this enum.
func (v ValidationMethod) Valid() bool {
	return v >= NoValidation && v <= DeletedKeyCheck
}

// String implements fmt.Stringer.
func (v ValidationMethod) String() string {
	switch v {
	case NoValidation:
		return "none"
	case Direct:
		return "direct"
	case Timestamp:
		return "ts"
	case DeletedKeyCheck:
		return "deleted-key"
	}
	return "validation(?)"
}

// SecondaryQueryOptions configures a secondary-index range query.
type SecondaryQueryOptions struct {
	// Validation selects the validation method (Figure 5). Use
	// NoValidation only with the Eager strategy.
	Validation ValidationMethod
	// IndexOnly answers from the secondary index alone (plus validation);
	// no records are fetched. Incompatible with Direct validation.
	IndexOnly bool
	// Lookup configures the record-fetch point lookups.
	Lookup LookupConfig
	// CrackOnValidate lets Timestamp validation drive index maintenance
	// (the paper's Section 7 future-work direction): entries it proves
	// obsolete are marked in the source component's cracked bitmap, so
	// subsequent queries skip them and the next merge removes them.
	CrackOnValidate bool
}

// SecondaryResult is the answer to a secondary-index range query. Its byte
// strings are sub-slices of a few chunks shared by the whole answer
// (kv.Arena): keeping one record or key keeps its chunk alive.
type SecondaryResult struct {
	// Records holds the fetched records (non-index-only queries).
	Records []kv.Entry
	// Keys holds the matching primary keys (index-only queries).
	Keys [][]byte
}

// candidate is one (pk, ts) pair returned by the secondary index search.
type candidate struct {
	pk  []byte
	ts  int64
	src lsm.ID
	// srcRepairedTS is the repairedTS of the component the entry came
	// from, which prunes primary-key-index components during Timestamp
	// validation (footnote 2 of the paper).
	srcRepairedTS int64
	// srcRank is the index of the source component in the scanned list
	// (len = memory component), for deleted-key validation recency.
	srcRank int
	// srcComp and srcOrdinal locate the entry for query-driven cracking.
	srcComp    *lsm.Component
	srcOrdinal int64
}

func byPK(a, b candidate) int { return kv.Compare(a.pk, b.pk) }

// SecondaryRange runs a range query loSK <= secondary key <= hiSK against
// the given secondary index of the dataset.
func SecondaryRange(ds *core.Dataset, si *core.SecondaryIndex, loSK, hiSK []byte, opts SecondaryQueryOptions) (*SecondaryResult, error) {
	env := ds.Env()
	lo, hi := kv.SecondaryScanBounds(loSK, hiSK)

	// One atomic view of the index: entries of an in-flight flush stay
	// visible through the frozen memtable until their component lands. The
	// pin outlives the scan: deleted-key validation reads the components'
	// deleted-key trees.
	v := si.Tree.ReadView()
	defer v.Release()
	mem, flushing, comps := v.Mem, v.Flushing, v.Components
	it, err := si.Tree.NewMergedIterator(lsm.IterOptions{
		Lo: lo, Hi: hi,
		Components:    comps,
		Flushing:      flushing,
		Mem:           mem,
		HideAnti:      true,
		SkipInvisible: true,
	})
	if err != nil {
		return nil, err
	}
	defer it.Close()
	// Every candidate key and fetched record of this query is copied into
	// one arena.
	var arena kv.Arena
	var cands []candidate
	for {
		item, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		pk, err := kv.PrimaryOf(item.Entry.Key)
		if err != nil {
			return nil, err
		}
		c := candidate{
			pk: arena.Copy(pk),
			ts: item.Entry.TS,
		}
		if item.Comp != nil {
			c.src = item.Comp.ID
			c.srcRepairedTS = item.Comp.RepairedTS
			c.srcComp = item.Comp
			c.srcOrdinal = item.Ordinal
			for rank := range comps {
				if comps[rank] == item.Comp {
					c.srcRank = rank
					break
				}
			}
		} else {
			// Memory-component entries are as fresh as it gets: only the
			// memory component itself can invalidate them.
			c.srcRepairedTS = 0
			c.src = lsm.ID{MinTS: item.Entry.TS, MaxTS: item.Entry.TS}
			c.srcRank = len(comps)
		}
		cands = append(cands, c)
	}

	// The validation method decides which candidates survive; one tail then
	// answers from their keys or fetches their records.
	res := &SecondaryResult{}
	direct := opts.Validation == Direct
	switch opts.Validation {
	case NoValidation:
	case Direct:
		// Sort-distinct then fetch; the search condition is re-checked on
		// each record (Figure 5a), so the index alone cannot answer.
		env.ChargeSort(len(cands))
		slices.SortFunc(cands, byPK)
		distinct := cands[:0]
		for i, c := range cands {
			if i == 0 || kv.Compare(c.pk, cands[i-1].pk) != 0 {
				distinct = append(distinct, c)
			}
		}
		cands = distinct
	case DeletedKeyCheck:
		cands, err = deletedKeyValidate(ds, si, comps, cands)
	case Timestamp:
		cands, err = timestampValidate(ds, cands, opts.CrackOnValidate)
	default:
		return res, nil
	}
	if err != nil {
		return nil, err
	}
	if opts.IndexOnly && !direct {
		for i := range cands {
			res.Keys = append(res.Keys, cands[i].pk)
		}
		return res, nil
	}
	keys := make([]Key, len(cands))
	for i, c := range cands {
		keys[i] = Key{PK: c.pk, Src: c.src}
	}
	res.Records = make([]kv.Entry, 0, len(keys))
	err = FetchRecords(ds.Primary(), keys, opts.Lookup, func(e kv.Entry) {
		if direct {
			if sk, ok := si.Spec.Extract(e.Value); !ok ||
				kv.Compare(sk, loSK) < 0 || kv.Compare(sk, hiSK) > 0 {
				return
			}
		}
		res.Records = append(res.Records, arena.CloneEntry(e))
	})
	return res, err
}

// deletedKeyValidate implements the deleted-key B+-tree strategy's query
// validation (Section 4.1): a candidate is invalid when a same-or-newer
// component's deleted-key B+-tree — or the memory component's accumulator —
// holds its primary key with a newer timestamp. Each probe first consults
// the deleted-key tree's Bloom filter.
func deletedKeyValidate(ds *core.Dataset, si *core.SecondaryIndex, comps []*lsm.Component, cands []candidate) ([]candidate, error) {
	env := ds.Env()
	var valid []candidate
	for _, c := range cands {
		invalid := si.MemDeletedAfter(c.pk, c.ts)
		for rank := c.srcRank; !invalid && rank < len(comps); rank++ {
			comp := comps[rank]
			if comp.DeletedKeys == nil {
				continue
			}
			if comp.DeletedKeysBloom != nil {
				env.Counters.BloomTests.Add(1)
				env.Clock.Advance(env.CPU.Hash)
				ok, lines := comp.DeletedKeysBloom.MayContain(c.pk)
				env.Clock.Advance(time.Duration(lines) * env.CPU.CacheLineMiss)
				if !ok {
					env.Counters.BloomNegatives.Add(1)
					continue
				}
			}
			if _, _, err := comp.DeletedKeys.Get(c.pk, func(e kv.Entry, _ int64) {
				invalid = e.TS > c.ts
			}); err != nil {
				return nil, err
			}
		}
		if !invalid {
			valid = append(valid, c)
		}
	}
	return valid, nil
}

// timestampValidate implements Figure 5b: candidates are sorted by primary
// key, then validated with point lookups against the primary key index; a
// candidate is invalid when the same key exists with a larger timestamp.
// Primary-key-index components with maxTS <= the candidate's source
// repairedTS are pruned. With crack set, proven-invalid entries are marked
// in their source component's cracked bitmap (query-driven maintenance).
func timestampValidate(ds *core.Dataset, cands []candidate, crack bool) ([]candidate, error) {
	pkIndex := ds.PKIndex()
	if pkIndex == nil {
		return nil, core.ErrNoPKIndex
	}
	env := ds.Env()
	env.ChargeSort(len(cands))
	slices.SortFunc(cands, byPK)

	v := pkIndex.ReadView()
	defer v.Release()
	mem, flushing, comps := v.Mem, v.Flushing, v.Components
	cursors := make([]*btree.LookupCursor, len(comps))
	for i, c := range comps {
		cursors[i] = c.BTree.NewLookupCursor(true)
	}
	defer closeCursors(cursors)

	var valid []candidate
	for _, c := range cands {
		newestTS := int64(-1)
		if e, ok := memGet(env, mem, flushing, c.pk); ok {
			newestTS = e.TS
		} else {
			for ci := len(comps) - 1; ci >= 0; ci-- {
				comp := comps[ci]
				if comp.ID.MaxTS <= c.srcRepairedTS {
					continue // pruned: already validated up to here
				}
				if !comp.MayContain(env, c.pk) {
					continue
				}
				e, _, found, err := cursors[ci].Lookup(c.pk)
				if err != nil {
					return nil, err
				}
				if found {
					newestTS = e.TS
					break
				}
			}
		}
		if newestTS > c.ts {
			// A newer version (or delete) supersedes this entry.
			if crack && c.srcComp != nil {
				c.srcComp.Crack(c.srcOrdinal)
			}
			continue
		}
		valid = append(valid, c)
	}
	return valid, nil
}
