package shard

import (
	"errors"
	"sort"

	"repro/internal/kv"
	"repro/internal/query"
)

// ErrUnknownIndex reports a fan-out query against an undeclared secondary
// index.
var ErrUnknownIndex = errors.New("shard: unknown secondary index")

// SecondaryQuery fans a secondary-index range query out to every shard
// and merges the answers. Because shards
// are independent hash partitions, a primary key appears in exactly one
// shard's answer; the merged records (or keys, for index-only queries) are
// returned in primary-key order — a deterministic total order regardless
// of shard interleaving — and truncated to limit when limit > 0. Each
// shard query is itself capped at limit candidates' worth of work only at
// the merge (the underlying single-partition query has no early-exit), so
// limit bounds the answer size, not the scan cost.
func (r *Router) SecondaryQuery(index string, lo, hi []byte, opts query.SecondaryQueryOptions, limit int) (*query.SecondaryResult, error) {
	perShard := make([]*query.SecondaryResult, len(r.parts))
	err := r.fanOut(func(i int, p *Partition) error {
		si := p.DS.Secondary(index)
		if si == nil {
			return ErrUnknownIndex
		}
		res, err := query.SecondaryRange(p.DS, si, lo, hi, opts)
		if err != nil {
			return err
		}
		perShard[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := &query.SecondaryResult{}
	for _, res := range perShard {
		merged.Records = append(merged.Records, res.Records...)
		merged.Keys = append(merged.Keys, res.Keys...)
	}
	sort.Slice(merged.Records, func(i, j int) bool {
		return kv.Compare(merged.Records[i].Key, merged.Records[j].Key) < 0
	})
	sort.Slice(merged.Keys, func(i, j int) bool {
		return kv.Compare(merged.Keys[i], merged.Keys[j]) < 0
	})
	if limit > 0 {
		if len(merged.Records) > limit {
			merged.Records = merged.Records[:limit]
		}
		if len(merged.Keys) > limit {
			merged.Keys = merged.Keys[:limit]
		}
	}
	return merged, nil
}

// FilterScan runs the primary-index range-filter scan on every shard
// concurrently, then emits the union in primary-key order. emit is always
// called from the caller's goroutine. A single partition already scans in
// primary-key order, so it streams straight to emit: an unbounded scan is
// never buffered.
func (r *Router) FilterScan(lo, hi int64, emit func(kv.Entry)) error {
	if len(r.parts) == 1 {
		return query.FilterScan(r.parts[0].DS, lo, hi, emit)
	}
	perShard := make([][]kv.Entry, len(r.parts))
	err := r.fanOut(func(i int, p *Partition) error {
		return query.FilterScan(p.DS, lo, hi, func(e kv.Entry) {
			perShard[i] = append(perShard[i], e.Clone())
		})
	})
	if err != nil {
		return err
	}
	var all []kv.Entry
	for _, entries := range perShard {
		all = append(all, entries...)
	}
	sort.Slice(all, func(i, j int) bool { return kv.Compare(all[i].Key, all[j].Key) < 0 })
	for _, e := range all {
		emit(e)
	}
	return nil
}
