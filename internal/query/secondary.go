package query

import (
	"slices"

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
	// NoValidation only with the Eager strategy, which answers every method
	// as NoValidation.
	Validation ValidationMethod
	// IndexOnly answers from the secondary index alone (plus validation);
	// no records are fetched. Incompatible with Direct validation.
	IndexOnly bool
	// Lookup configures the record-fetch point lookups.
	Lookup LookupConfig
}

// SecondaryResult is the answer to a secondary-index range query. Its byte
// strings are sub-slices of a few chunks shared by the whole answer (a
// kv.Arena): keeping one record or key keeps its chunk alive, and they are
// valid until that arena is Reset.
type SecondaryResult struct {
	// Records holds the fetched records (non-index-only queries).
	Records []kv.Entry
	// Keys holds the matching primary keys (index-only queries).
	Keys [][]byte
}

// candidate is one (pk, ts) pair returned by the secondary index search.
type candidate struct {
	// pk is the primary key, in the scratch's key buffer; pkEnd is where it
	// ends there. pk is set from pkEnd once the scan is over, because the
	// buffer may move while it grows.
	pk    []byte
	pkEnd int
	ts    int64
	// srcRepairedTS is the repairedTS of the component the entry came
	// from, which prunes primary-key-index components during Timestamp
	// validation (footnote 2 of the paper).
	srcRepairedTS int64
	// srcRank is the recency rank of the entry's source (lsm.MergedItem's
	// Rank: the component's index in the scanned list, len or more for a
	// memory component), for deleted-key validation recency.
	srcRank int
	// superseded marks a candidate Timestamp validation found a newer
	// version of.
	superseded bool
}

func byPK(a, b candidate) int { return kv.Compare(a.pk, b.pk) }

// SecondaryRange runs a range query loSK <= secondary key <= hiSK against
// the given secondary index of the dataset. Its working memory comes from a
// recycled scratch, so what it allocates is its answer.
func SecondaryRange(ds *core.Dataset, si *core.SecondaryIndex, loSK, hiSK []byte, opts SecondaryQueryOptions) (*SecondaryResult, error) {
	res := &SecondaryResult{}
	if err := AppendSecondaryRange(res, new(kv.Arena), ds, si, loSK, hiSK, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// AppendSecondaryRange is SecondaryRange appending its answer to res: the
// records to res.Records, or, index-only, the keys to res.Keys, with every
// byte of them copied into arena. A caller that reuses res and a Reset
// arena across queries (the router's per-shard answers) allocates nothing
// once they have grown to the answer's size.
func AppendSecondaryRange(res *SecondaryResult, arena *kv.Arena, ds *core.Dataset, si *core.SecondaryIndex, loSK, hiSK []byte, opts SecondaryQueryOptions) error {
	sc := getScratch()
	defer sc.release()
	return sc.secondaryRange(res, arena, ds, si, loSK, hiSK, opts)
}

func (sc *scratch) secondaryRange(res *SecondaryResult, arena *kv.Arena, ds *core.Dataset, si *core.SecondaryIndex, loSK, hiSK []byte, opts SecondaryQueryOptions) error {
	if ds.Config().Strategy == core.Eager {
		// Its indexes are current. Timestamp validation would drop a record
		// whose update kept its secondary key, and so its old index entry.
		opts.Validation = NoValidation
	}
	env := ds.Env()
	var lo, hi []byte
	sc.bounds, lo, hi = kv.AppendSecondaryScanBounds(sc.bounds[:0], loSK, hiSK)

	// One atomic view of the index: entries of an in-flight flush stay
	// visible through the frozen memtable until their component lands. The
	// pin outlives the scan: deleted-key validation reads the components'
	// deleted-key trees.
	v := si.Tree.ReadView()
	defer v.Release()
	comps := v.Components
	if err := sc.it.Open(lsm.IterOptions{
		Lo: lo, Hi: hi,
		Components:    comps,
		Flushing:      v.Flushing,
		Mem:           v.Mem,
		HideAnti:      true,
		SkipInvisible: true,
	}); err != nil {
		return err
	}
	cands, err := sc.collect()
	if err != nil {
		return err
	}

	// The validation method decides which candidates survive; one tail then
	// answers from their keys or fetches their records.
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
		cands, err = sc.timestampValidate(ds, cands)
	default:
		return nil
	}
	if err != nil {
		return err
	}
	// Every byte of the answer is copied into the arena; the candidates'
	// keys stay in the scratch.
	if opts.IndexOnly && !direct {
		res.Keys = slices.Grow(res.Keys, len(cands))
		for i := range cands {
			res.Keys = append(res.Keys, arena.Copy(cands[i].pk))
		}
		return nil
	}
	// Only a Timestamp survivor's ts is known to be its key's newest, which
	// the fetch prunes by.
	keys := sc.keys[:0]
	for _, c := range cands {
		k := Key{PK: c.pk}
		if opts.Validation == Timestamp {
			k.TS = c.ts
		}
		keys = append(keys, k)
	}
	sc.keys = keys
	res.Records = slices.Grow(res.Records, len(keys))
	return sc.fetchRecords(ds.Primary(), keys, opts.Lookup, func(e kv.Entry) {
		if direct {
			if sk, ok := si.Spec.Extract(e.Value); !ok ||
				kv.Compare(sk, loSK) < 0 || kv.Compare(sk, hiSK) > 0 {
				return
			}
		}
		res.Records = append(res.Records, arena.CloneEntry(e))
	})
}

// collect drains the open iterator into the scratch's candidates, copying
// each primary key into the scratch's key buffer, and closes the iterator,
// so its pins are gone before validation and the fetch read pages.
func (sc *scratch) collect() ([]candidate, error) {
	defer sc.it.Close()
	sc.pks = sc.pks[:0]
	cands := sc.cands[:0]
	for {
		item, ok, err := sc.it.Next()
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
		sc.pks = append(sc.pks, pk...)
		c := candidate{pkEnd: len(sc.pks), ts: item.Entry.TS, srcRank: item.Rank}
		if item.Comp != nil {
			c.srcRepairedTS = item.Comp.RepairedTS
		}
		cands = append(cands, c)
	}
	sc.cands = cands
	start := 0
	for i := range cands {
		end := cands[i].pkEnd
		cands[i].pk = sc.pks[start:end:end]
		start = end
	}
	return cands, nil
}

// deletedKeyValidate implements the deleted-key B+-tree strategy's query
// validation (Section 4.1): a candidate is invalid when a same-or-newer
// component's deleted-key B+-tree — or the memory component's accumulator —
// holds its primary key with a newer timestamp. Each probe first consults
// the deleted-key tree's Bloom filter. The survivors are filtered in place.
func deletedKeyValidate(ds *core.Dataset, si *core.SecondaryIndex, comps []*lsm.Component, cands []candidate) ([]candidate, error) {
	env := ds.Env()
	valid := cands[:0]
	for _, c := range cands {
		invalid := si.MemDeletedAfter(c.pk, c.ts)
		for rank := c.srcRank; !invalid && rank < len(comps); rank++ {
			comp := comps[rank]
			if comp.DeletedKeys == nil {
				continue
			}
			if !lsm.ProbeBloom(env, comp.DeletedKeysBloom, c.pk) {
				continue
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
// key, then validated with point lookups against the primary key index, one
// key per batch; a candidate is invalid when the same key exists with a
// larger timestamp. Primary-key-index components with maxTS <= the
// candidate's source repairedTS are pruned. The survivors are filtered in
// place.
func (sc *scratch) timestampValidate(ds *core.Dataset, cands []candidate) ([]candidate, error) {
	pkIndex := ds.PKIndex()
	if pkIndex == nil {
		return nil, core.ErrNoPKIndex
	}
	ds.Env().ChargeSort(len(cands))
	slices.SortFunc(cands, byPK)
	v := pkIndex.ReadView()
	defer v.Release()
	if err := v.Lookup(&sc.lookups, len(cands), 1, true,
		func(i int) []byte { return cands[i].pk },
		func(i int, c *lsm.Component) bool {
			return c.ID.MaxTS <= cands[i].srcRepairedTS // pruned: already validated up to here
		},
		func(i int, e kv.Entry, _ bool) {
			// A newer version (or delete) supersedes this entry.
			cands[i].superseded = e.TS > cands[i].ts
		}); err != nil {
		return nil, err
	}
	valid := cands[:0]
	for _, c := range cands {
		if !c.superseded {
			valid = append(valid, c)
		}
	}
	return valid, nil
}
