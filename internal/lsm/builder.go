package lsm

import (
	"sync"

	"repro/internal/bloom"
	"repro/internal/btree"
	"repro/internal/kv"
	"repro/internal/storage"
)

// keySetFilter configures the filter of every deleted-key B+-tree (Section
// 4.1): a standard Bloom filter at 1 %, whatever the owning tree uses.
var keySetFilter = Options{BloomFPR: 0.01, Bloom: bloom.KindStandard}

// Builder writes one component file. It is the only code that turns entries
// into component bytes: it encodes each payload, bulk-loads the B+-tree,
// fills the Bloom filter — a bloom.V2 filter is written into the file,
// after the tree's pages — and hands the finished reader over from the
// maintenance lane to the foreground store. Flushes, merges, the primary-key-
// index sibling of a Mutable-bitmap merge and deleted-key trees all build
// through it.
//
// Builders are recycled like btree.Builder: NewBuilder and NewKeySetBuilder
// take one from a small free list, and Finish and Abort give it back with
// its payload buffer and the merge iterator Merge reads its inputs through.
// A warm build allocates the file, the Bloom filter and the reader, and
// nothing per entry or page. A builder must not be used once Finish or Abort
// has returned.
type Builder struct {
	tree    *btree.Builder // nil once aborted
	read    *storage.Store // the store the finished reader charges
	filter  bloom.Filter
	add     func([]byte)
	payload []byte
	err     error
	// merge is the iterator Tree.Merge reads its inputs through; Finish and
	// Abort close it.
	merge MergedIterator
}

const (
	// maxFreeBuilders is how many finished builders are kept for reuse, as
	// many as btree keeps.
	maxFreeBuilders = 4
	// maxKeptPayload caps the payload buffer a kept builder retains.
	maxKeptPayload = 64 << 10
)

// freeBuilders holds finished builders for newBuilder: a bounded list, not a
// sync.Pool, so what it keeps is counted as live heap.
var freeBuilders struct {
	sync.Mutex
	list []*Builder
}

// NewBuilder starts a component of t sized for up to n keys, written on the
// tree's lane and filtered with its configured Bloom filter.
func (t *Tree) NewBuilder(n int) *Builder {
	filter, add := newFilter(t.opts, n)
	return newBuilder(t.opts.Lane, t.opts.Store, filter, add)
}

// NewKeySetBuilder starts a deleted-key B+-tree of up to n keys, written on
// lane and read through read once finished.
func NewKeySetBuilder(lane, read *storage.Store, n int) *Builder {
	filter, add := newFilter(keySetFilter, n)
	return newBuilder(lane, read, filter, add)
}

func newBuilder(lane, read *storage.Store, filter bloom.Filter, add func([]byte)) *Builder {
	var b *Builder
	freeBuilders.Lock()
	if n := len(freeBuilders.list); n > 0 {
		b = freeBuilders.list[n-1]
		freeBuilders.list[n-1] = nil
		freeBuilders.list = freeBuilders.list[:n-1]
	}
	freeBuilders.Unlock()
	if b == nil {
		b = new(Builder)
	}
	b.tree, b.read, b.filter, b.add, b.err = btree.NewBuilder(lane), read, filter, add, nil
	return b
}

// release closes b's merge iterator, drops what b refers to and keeps it for
// the next build, unless the free list is full or its payload buffer grew
// past maxKeptPayload.
func (b *Builder) release() {
	b.merge.Close()
	b.tree, b.read, b.filter, b.add = nil, nil, nil, nil
	if cap(b.payload) > maxKeptPayload {
		return
	}
	freeBuilders.Lock()
	if len(freeBuilders.list) < maxFreeBuilders {
		freeBuilders.list = append(freeBuilders.list, b)
	}
	freeBuilders.Unlock()
}

// Add appends e; keys arrive in strictly increasing order. A failed Add
// aborts the build: the file is deleted and every later call fails with the
// same error.
func (b *Builder) Add(e kv.Entry) error {
	if b.err != nil {
		return b.err
	}
	b.payload = kv.AppendPayload(b.payload[:0], e)
	if err := b.tree.Add(e.Key, b.payload); err != nil {
		b.tree.Abort()
		b.tree, b.err = nil, err
		return err
	}
	if b.add != nil {
		b.add(e.Key)
	}
	return nil
}

// Finish completes the file — with its filter's pages when the filter is a
// bloom.V2 — and returns its reader, bound to the foreground store, and its
// filter (nil when the tree builds none). A failed Finish
// leaves no file behind.
func (b *Builder) Finish() (*btree.Reader, bloom.Filter, error) {
	if b.err != nil {
		err := b.err
		b.release()
		return nil, nil, err
	}
	// Only a V2 filter is written into the file; a Standard filter stays
	// in memory and is rebuilt at reopen.
	var enc btree.EncodedFilter
	if v2, ok := b.filter.(*bloom.V2); ok {
		enc = v2
	}
	r, err := b.tree.FinishWithFilter(enc)
	filter, read := b.filter, b.read
	b.release()
	if err != nil {
		return nil, nil, err
	}
	r.Rebind(read)
	return r, filter, nil
}

// Abort discards an unfinished build and its file.
func (b *Builder) Abort() {
	if b.tree != nil {
		b.tree.Abort()
	}
	b.release()
}
