package query

import (
	"sync"

	"repro/internal/lsm"
	"repro/internal/memtable"
)

// scratch is one query's working memory: the secondary index's or a filter
// scan's merged iterator with its sources and B+-tree scans, the filter
// scan's picked components and memtables, the composite scan bounds, the
// candidates and their primary keys, the fetch list, and the point lookup's
// cursors and found flags. A query takes one from scratchPool and
// returns it when it is done, so a query in steady state allocates only its
// answer: the result, its records (or keys) slice and the arena chunks
// holding their bytes. Nothing in the answer points into a scratch.
type scratch struct {
	it      lsm.MergedIterator
	bounds  []byte // the composite scan bounds, lo then hi
	pks     []byte // the candidates' primary keys, back to back
	cands   []candidate
	keys    []Key
	lookups lsm.Lookups
	comps   []*lsm.Component
	mems    []*memtable.Table
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxRecycledCandidates bounds what the pool keeps: a query with more
// candidates than this leaves its scratch, whose other buffers grow with
// the candidates, to the garbage collector, so one huge query does not pin
// its working memory.
const maxRecycledCandidates = 8192

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release resets the scratch and returns it to the pool, unless a large
// query grew it past maxRecycledCandidates.
func (sc *scratch) release() {
	sc.reset()
	if cap(sc.cands) <= maxRecycledCandidates {
		scratchPool.Put(sc)
	}
}

// reset drops every reference the scratch holds into the query's data —
// candidate keys, components, memtables, the cursors' readers, the
// iterator's sources — and keeps only its memory. Slices are cleared to
// their capacity, not their length: a later phase may use fewer entries
// than an earlier one did (the fetch's cursors after timestamp
// validation's).
func (sc *scratch) reset() {
	sc.it.Close()
	clear(sc.cands[:cap(sc.cands)])
	clear(sc.keys[:cap(sc.keys)])
	sc.lookups.Reset()
	clear(sc.comps[:cap(sc.comps)])
	clear(sc.mems[:cap(sc.mems)])
	sc.comps, sc.mems = sc.comps[:0], sc.mems[:0]
}
