package lsm

import (
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
// fills the Bloom filter, and hands the finished reader over from the
// maintenance lane to the foreground store. Flushes, merges, the primary-key-
// index sibling of a Mutable-bitmap merge and deleted-key trees all build
// through it.
type Builder struct {
	tree    *btree.Builder
	read    *storage.Store // the store the finished reader charges
	filter  bloom.Filter
	add     func([]byte)
	payload []byte
	err     error
}

// NewBuilder starts a component of t sized for up to n keys, written on the
// tree's lane and filtered with its configured Bloom filter.
func (t *Tree) NewBuilder(n int) *Builder {
	filter, add := newFilter(t.opts, n)
	return newBuilder(t.opts.Lane, t.opts.Store, filter, add)
}

// NewKeySetBuilder starts a deleted-key B+-tree of up to n keys, written on
// lane (nil: on read) and read through read once finished.
func NewKeySetBuilder(lane, read *storage.Store, n int) *Builder {
	filter, add := newFilter(keySetFilter, n)
	return newBuilder(lane, read, filter, add)
}

func newBuilder(lane, read *storage.Store, filter bloom.Filter, add func([]byte)) *Builder {
	if lane == nil {
		lane = read
	}
	return &Builder{tree: btree.NewBuilder(lane), read: read, filter: filter, add: add}
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
		b.err = err
		return err
	}
	if b.add != nil {
		b.add(e.Key)
	}
	return nil
}

// Finish completes the file and returns its reader, bound to the foreground
// store, and its filter (nil when the tree builds none). A failed Finish
// leaves no file behind.
func (b *Builder) Finish() (*btree.Reader, bloom.Filter, error) {
	if b.err != nil {
		return nil, nil, b.err
	}
	r, err := b.tree.Finish()
	if err != nil {
		return nil, nil, err
	}
	r.Rebind(b.read)
	return r, b.filter, nil
}

// Abort discards an unfinished build and its file.
func (b *Builder) Abort() { b.tree.Abort() }
