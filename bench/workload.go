package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/workload"
	"repro/lsmclient"
	"repro/lsmstore"
)

// Fixed configuration: the same on every workload and on both sides of any
// A/B. README.md explains each choice.
const (
	nClients      = 2 // closed-loop client goroutines, one connection each (nproc)
	batchSize     = 64
	preloadBatch  = 256
	userRange     = 30_000 // ~3 records per user at the preload sizes below
	queryUsers    = 25     // consecutive user ids per SECONDARY_QUERY
	scanWindow    = 200    // FILTER_SCAN: newest creation ticks
	scanLimit     = 100
	warmupFrac    = 0.05
	setupReps     = 3 // set-ups per run; setup_s is their median
	sampleQueries = 200
	readbackKeys  = 1000
	zipfTheta     = 0.99
)

func storeOptions(dir string) lsmstore.Options {
	return lsmstore.Options{
		Backend:            lsmstore.FileBackend,
		Dir:                dir,
		Strategy:           lsmstore.Validation,
		Secondaries:        []lsmstore.SecondaryIndex{{Name: "user", Extract: workload.UserIDOf}},
		FilterExtract:      workload.CreationOf,
		Shards:             2,
		MaintenanceWorkers: 2,
		MemoryBudget:       4 << 20,
		CacheBytes:         16 << 20,
		ReadCache:          lsmstore.ReadCacheOptions{Bytes: 8 << 20},
	}
}

type opKind uint8

const (
	opGet opKind = iota
	opUpsert
	opBatch
	opQuery
	opScan
	numKinds
)

var kindNames = [numKinds]string{"get", "upsert", "apply_batch", "secondary_query", "filter_scan"}

// workloadSpec is one workload. Sizes are for both clients together; counts
// are committed constants, sized once on the seed code so that reqPerSec
// requests take about one second. Nothing is calibrated at run time.
type workloadSpec struct {
	name       string
	preload    int // records inserted during set-up
	preUpdates int // then updates of uniformly chosen preloaded keys
	reqPerSec  int // the measured phase is reqPerSec × -seconds requests
	main       opKind
	hot        int // GETs draw Zipf(0.99) ranks from this many keys; 0 = uniform over all
	// Request mix in percent; the remainder is single UPSERTs.
	pctBatch, pctGet, pctQuery, pctScan int
	// newKeyPct is the share of upserted records that insert a new key;
	// the rest update a uniformly chosen past key.
	newKeyPct int
}

var workloads = []workloadSpec{
	{name: "ingest-batch", preload: 40_000, reqPerSec: 480, main: opBatch, pctBatch: 100, newKeyPct: 50},
	{name: "get-hot", preload: 60_000, reqPerSec: 68_000, main: opGet, hot: 8_000, pctGet: 100},
	{name: "mixed-cold", preload: 120_000, reqPerSec: 13_000, main: opGet, pctGet: 90, newKeyPct: 50},
	{name: "query-secondary", preload: 90_000, preUpdates: 30_000, reqPerSec: 360, main: opQuery, pctQuery: 85, pctScan: 5},
}

func findWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// target is where a client sends its operations: the served store through
// lsmclient, or (traced run, depth b) the embedded DB directly.
type target interface {
	Get(pk []byte) ([]byte, bool, error)
	Upsert(pk, record []byte) error
	ApplyBatch(muts []lsmstore.Mutation) ([]bool, error)
	SecondaryQuery(index string, lo, hi []byte, opts lsmstore.QueryOptions) (*lsmstore.QueryResult, error)
	FilterScan(lo, hi int64, limit int) ([]lsmstore.Record, error)
}

var _ target = (*lsmclient.Client)(nil)

// dbTarget adapts the embedded DB to target the way the server's handlers
// call it: zero-copy GETs, result-reporting batches, limit applied by the
// scan callback.
type dbTarget struct{ db *lsmstore.DB }

func (t dbTarget) Get(pk []byte) ([]byte, bool, error) { return t.db.GetRef(pk) }
func (t dbTarget) Upsert(pk, record []byte) error      { return t.db.Upsert(pk, record) }
func (t dbTarget) ApplyBatch(muts []lsmstore.Mutation) ([]bool, error) {
	return t.db.ApplyBatchResults(muts)
}
func (t dbTarget) SecondaryQuery(index string, lo, hi []byte, opts lsmstore.QueryOptions) (*lsmstore.QueryResult, error) {
	return t.db.SecondaryQuery(index, lo, hi, opts)
}
func (t dbTarget) FilterScan(lo, hi int64, limit int) ([]lsmstore.Record, error) {
	var out []lsmstore.Record
	err := t.db.FilterScan(lo, hi, func(pk, record []byte) {
		if len(out) < limit {
			out = append(out, lsmstore.Record{PK: bytes.Clone(pk), Value: bytes.Clone(record)})
		}
	})
	return out, err
}

// client is one closed-loop client: its operation stream, the model of its
// own keys, and the buffers the stream reuses. The stream is a pure
// function of (seed, idx); no other goroutine touches the client while it
// runs.
type client struct {
	spec *workloadSpec
	seed uint64
	idx  int
	rnd  rng
	zipf *zipf

	// Model: key i currently holds the record written by write last[i].
	last []uint32
	seq  uint32 // writes issued
	// userBytes is the pk+record bytes of every write accepted so far.
	userBytes int64

	// freshBufs makes every write allocate its key and record bytes, for
	// the embedded DB, which keeps what it is handed. lsmclient copies a
	// request into its frame before returning, so the served path reuses
	// one buffer.
	freshBufs bool
	buf       []byte
	want      []byte
	muts      []lsmstore.Mutation
	lo, hi    [4]byte
}

// newClient makes client idx of a run. capacity is how many keys its model
// must hold without growing; hot is its share of the Zipf hot set.
func newClient(spec *workloadSpec, seed uint64, idx, capacity, hot int) *client {
	c := &client{
		spec: spec, seed: seed, idx: idx,
		rnd:  newRNG(seed*nClients + uint64(idx) + 1),
		last: make([]uint32, 0, capacity),
		muts: make([]lsmstore.Mutation, 0, preloadBatch),
		buf:  make([]byte, 0, preloadBatch*(recHeader+msgMin+msgSpan+8)),
	}
	if hot > 0 {
		c.zipf = newZipf(hot, zipfTheta)
	}
	return c
}

func (c *client) keyID(i int) uint64 { return keyID(c.seed, c.idx, i) }

// writeBuf returns the buffer the next write op encodes its keys and
// records into.
func (c *client) writeBuf(size int) []byte {
	if c.freshBufs {
		return make([]byte, 0, size)
	}
	return c.buf[:0]
}

// nextWrite picks the key of the next written record, notes the write in
// the model and appends pk and record to buf, returning them as
// sub-slices.
func (c *client) nextWrite(buf []byte, newKey bool) (out, pk, rec []byte) {
	i := len(c.last)
	if newKey || i == 0 {
		c.last = append(c.last, 0)
	} else {
		i = c.rnd.intn(i)
	}
	id := c.keyID(i)
	c.last[i] = c.seq
	n := len(buf)
	buf = putPK(buf, id)
	buf = appendRecord(buf, id, c.seq, c.idx)
	c.seq++
	c.userBytes += int64(len(buf) - n)
	return buf, buf[n : n+8 : n+8], buf[n+8 : len(buf) : len(buf)]
}

// fillBatch builds the next n-mutation batch in c.muts.
func (c *client) fillBatch(n, newKeyPct int) {
	buf := c.writeBuf(n * (recHeader + msgMin + msgSpan + 8))
	c.muts = c.muts[:0]
	for k := 0; k < n; k++ {
		var pk, rec []byte
		buf, pk, rec = c.nextWrite(buf, c.rnd.intn(100) < newKeyPct)
		c.muts = append(c.muts, lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: pk, Record: rec})
	}
}

// preload inserts new keys, then updates uniformly chosen ones, with
// batches applied straight to the DB.
func (c *client) preload(db *lsmstore.DB, inserts, updates int) error {
	c.freshBufs = true
	defer func() { c.freshBufs = false }()
	for _, phase := range []struct{ n, newKeyPct int }{{inserts, 100}, {updates, 0}} {
		for left := phase.n; left > 0; left -= preloadBatch {
			c.fillBatch(min(left, preloadBatch), phase.newKeyPct)
			if err := db.ApplyBatch(c.muts); err != nil {
				return err
			}
		}
	}
	return nil
}

// result is what one request returned, for the phase accounting.
type result struct {
	kind    opKind
	ok      bool   // the reply arrived and matched the model
	logical uint16 // operations the request carried: 64 for a batch, else 1
	records uint32 // query/scan: records returned
}

// do issues the client's next request against t and checks the reply.
func (c *client) do(t target) result {
	s := c.spec
	u := c.rnd.intn(100)
	switch {
	case u < s.pctBatch:
		c.fillBatch(batchSize, s.newKeyPct)
		applied, err := t.ApplyBatch(c.muts)
		ok := err == nil && len(applied) == batchSize
		for _, a := range applied {
			ok = ok && a
		}
		return result{kind: opBatch, logical: batchSize, ok: ok}

	case u < s.pctBatch+s.pctGet:
		var i int
		if c.zipf != nil {
			i = c.zipf.sample(c.rnd.float())
		} else {
			i = c.rnd.intn(len(c.last))
		}
		id := c.keyID(i)
		c.buf = putPK(c.buf[:0], id)
		val, found, err := t.Get(c.buf)
		c.want = appendRecord(c.want[:0], id, c.last[i], c.idx)
		return result{kind: opGet, logical: 1, ok: err == nil && found && bytes.Equal(val, c.want)}

	case u < s.pctBatch+s.pctGet+s.pctQuery:
		lo := uint32(c.rnd.intn(userRange - queryUsers))
		binary.BigEndian.PutUint32(c.lo[:], lo)
		binary.BigEndian.PutUint32(c.hi[:], lo+queryUsers-1)
		res, err := t.SecondaryQuery("user", c.lo[:], c.hi[:], lsmstore.QueryOptions{Validation: lsmstore.DirectValidation})
		if err != nil {
			return result{kind: opQuery, logical: 1}
		}
		ok := sortedUnique(res.Records)
		for _, r := range res.Records {
			k, has := workload.UserIDOf(r.Value)
			ok = ok && has && bytes.Compare(k, c.lo[:]) >= 0 && bytes.Compare(k, c.hi[:]) <= 0
		}
		return result{kind: opQuery, logical: 1, ok: ok, records: uint32(len(res.Records))}

	case u < s.pctBatch+s.pctGet+s.pctQuery+s.pctScan:
		lo := max(creationOf(c.idx, c.seq)-scanWindow, 0)
		recs, err := t.FilterScan(lo, math.MaxInt64, scanLimit)
		if err != nil {
			return result{kind: opScan, logical: 1}
		}
		ok := sortedUnique(recs) && len(recs) <= scanLimit
		for _, r := range recs {
			cr, has := workload.CreationOf(r.Value)
			ok = ok && has && cr >= lo
		}
		return result{kind: opScan, logical: 1, ok: ok, records: uint32(len(recs))}
	}
	_, pk, rec := c.nextWrite(c.writeBuf(recHeader+msgMin+msgSpan+8), c.rnd.intn(100) < s.newKeyPct)
	return result{kind: opUpsert, logical: 1, ok: t.Upsert(pk, rec) == nil}
}

// sortedUnique reports whether the records' primary keys strictly ascend.
func sortedUnique(recs []lsmstore.Record) bool {
	for i := 1; i < len(recs); i++ {
		if bytes.Compare(recs[i-1].PK, recs[i].PK) >= 0 {
			return false
		}
	}
	return true
}

// userBytes is the pk+record bytes of every write the clients have had
// accepted.
func userBytes(clients []*client) int64 {
	var n int64
	for _, c := range clients {
		n += c.userBytes
	}
	return n
}

// liveBytes is the pk+record bytes of the current version of every key.
func (c *client) liveBytes() int64 {
	var n int64
	for i, seq := range c.last {
		n += int64(8 + recordLen(c.keyID(i), seq))
	}
	return n
}

// checkSampledQueries runs sampleQueries SECONDARY_QUERYs over disjoint
// user ranges and compares each answer — keys and records — with the model
// of both clients. It returns how many were attempted and how many failed.
func checkSampledQueries(t target, clients []*client, r *rng) (attempted, failed int) {
	type ref struct {
		id  uint64
		c   *client
		seq uint32
	}
	// Range k covers queryUsers ids starting at a random offset inside the
	// k-th of sampleQueries equal slices of the user space.
	slice := userRange / sampleQueries
	starts := make([]uint32, sampleQueries)
	for k := range starts {
		starts[k] = uint32(k*slice + r.intn(slice-queryUsers))
	}
	want := make([][]ref, sampleQueries)
	for _, c := range clients {
		for i, seq := range c.last {
			id := c.keyID(i)
			u := userOf(id, seq)
			if k := int(u) / slice; k < sampleQueries && u >= starts[k] && u < starts[k]+queryUsers {
				want[k] = append(want[k], ref{id, c, seq})
			}
		}
	}
	var buf []byte
	for k, refs := range want {
		sort.Slice(refs, func(a, b int) bool { return refs[a].id < refs[b].id })
		lo, hi := workload.UserKey(starts[k]), workload.UserKey(starts[k]+queryUsers-1)
		res, err := t.SecondaryQuery("user", lo, hi, lsmstore.QueryOptions{Validation: lsmstore.DirectValidation})
		attempted++
		ok := err == nil && len(res.Records) == len(refs)
		for j := 0; ok && j < len(refs); j++ {
			buf = appendRecord(buf[:0], refs[j].id, refs[j].seq, refs[j].c.idx)
			ok = binary.BigEndian.Uint64(res.Records[j].PK) == refs[j].id && bytes.Equal(res.Records[j].Value, buf)
		}
		if !ok {
			failed++
		}
	}
	return attempted, failed
}

// checkReadback reads n sampled keys of the clients' models back from db
// and compares them with the model.
func checkReadback(db *lsmstore.DB, clients []*client, n int, r *rng) (attempted, failed int) {
	var pk, want []byte
	for k := 0; k < n; k++ {
		c := clients[k%len(clients)]
		i := r.intn(len(c.last))
		id := c.keyID(i)
		pk = putPK(pk[:0], id)
		want = appendRecord(want[:0], id, c.last[i], c.idx)
		got, found, err := db.Get(pk)
		attempted++
		if err != nil || !found || !bytes.Equal(got, want) {
			failed++
		}
	}
	return attempted, failed
}
