// Package btree implements the immutable on-disk B+-tree used inside every
// LSM disk component (primary index, primary key index, and secondary
// indexes all organize component data as B+-trees, Section 3). Trees are
// bulk-loaded once at flush/merge time and never modified afterwards.
//
// Layout: leaf pages first (file pages 0..L-1, so a full scan is a pure
// sequential read), then internal levels bottom-up, then the pages of the
// component's filter when it has one (FinishWithFilter), then one meta page
// that records where the root and the filter are.
// Every leaf knows the ordinal (rank) of its first entry, giving each entry
// a stable position used by the immutable and mutable bitmaps of Sections 4
// and 5.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/storage"
)

// Page types.
const (
	pageLeaf     = 1
	pageInternal = 2
	pageMeta     = 3
)

// leaf header: type(1) count(4) startOrdinal(8) = 13 bytes, then count
// uint32 offsets, then entry data (keyLen uvarint, key, payload).
const leafHeaderSize = 13

// internal header: type(1) count(4) = 5 bytes, then count uint32 offsets,
// then routing entries (keyLen uvarint, key, child uint32).
const internalHeaderSize = 5

// ErrKeyOrder reports out-of-order or duplicate keys during bulk load.
var ErrKeyOrder = errors.New("btree: keys must be added in strictly increasing order")

// ErrEntryTooLarge reports an entry that cannot fit in one page.
var ErrEntryTooLarge = errors.New("btree: entry exceeds page size")

// Builder bulk-loads a B+-tree into a fresh component file.
//
// Builders are recycled. NewBuilder takes one from a small free list, and
// Finish and Abort give it back with its buffers (the leaf under
// construction, the page buffer, the route keys and the per-level routes),
// so a warm build allocates nothing per entry, page or level. A builder
// must not be used once Finish or Abort has returned.
type Builder struct {
	store    *storage.Store
	file     storage.FileID
	pageSize int

	// The leaf under construction, laid out as its page will store it:
	// entries holds each entry's bytes (keyLen uvarint, key, payload) back
	// to back and offs where each one starts. Both are reused from leaf to
	// leaf, so Add copies an entry's bytes once and allocates nothing.
	entries []byte
	offs    []uint32

	// page is the one buffer every page of the file is assembled in. The
	// device copies what AppendPage hands it (storage.Device), so the buffer
	// is free again as soon as the call returns.
	page []byte

	// one pending routing entry per written page, per level; routeKeys holds
	// the leaves' first keys back to back, and an internal page's route
	// names its first leaf's key there too
	levels    [][]routeEntry
	routeKeys []byte

	lastKey []byte // reused; meaningful once count > 0
	count   int64
	done    bool
}

// routeEntry routes to a page whose first key is
// routeKeys[keyOff : keyOff+keyLen].
type routeEntry struct {
	keyOff, keyLen uint32
	page           uint32
}

const (
	// maxFreeBuilders is how many finished builders are kept for reuse:
	// about as many as run at once (a merge builds its primary-key-index
	// sibling beside it, and maintenance runs on a few workers).
	maxFreeBuilders = 4
	// maxKeptBuilderBytes caps the buffer capacity a kept builder retains;
	// one that grew past it (a very large merge) is dropped instead.
	maxKeptBuilderBytes = 256 << 10
)

// freeBuilders holds finished builders for NewBuilder. It is a plain list,
// not a sync.Pool, so what it keeps is bounded and counted as live heap.
var freeBuilders struct {
	sync.Mutex
	list []*Builder
}

// NewBuilder starts a bulk load into a new file on store.
func NewBuilder(store *storage.Store) *Builder {
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
	pageSize := store.PageSize()
	if cap(b.entries) < pageSize {
		b.entries = make([]byte, 0, pageSize)
	}
	if cap(b.page) < pageSize {
		b.page = make([]byte, 0, pageSize)
	}
	b.store, b.file, b.pageSize, b.done = store, store.Create(), pageSize, false
	return b
}

// release empties b and keeps it for the next NewBuilder, unless the free
// list is full or b's buffers grew past maxKeptBuilderBytes.
func (b *Builder) release() {
	b.store, b.count, b.done = nil, 0, true
	b.entries, b.offs, b.page = b.entries[:0], b.offs[:0], b.page[:0]
	b.routeKeys, b.lastKey = b.routeKeys[:0], b.lastKey[:0]
	kept := cap(b.entries) + 4*cap(b.offs) + cap(b.page) + cap(b.routeKeys) + cap(b.lastKey)
	levels := b.levels[:cap(b.levels)]
	for i := range levels {
		levels[i] = levels[i][:0]
		kept += 12 * cap(levels[i]) // a routeEntry is three uint32s
	}
	b.levels = levels[:0]
	if kept > maxKeptBuilderBytes {
		return
	}
	freeBuilders.Lock()
	if len(freeBuilders.list) < maxFreeBuilders {
		freeBuilders.list = append(freeBuilders.list, b)
	}
	freeBuilders.Unlock()
}

// Add appends an entry. Keys must arrive in strictly increasing order.
// payload is the opaque value bytes stored next to the key (the LSM layer
// encodes flags/timestamp/value in it).
func (b *Builder) Add(key, payload []byte) error {
	if b.done {
		return errors.New("btree: builder already finished")
	}
	if b.count > 0 && compareCharged(nil, key, b.lastKey) <= 0 {
		return fmt.Errorf("%w: %q after %q", ErrKeyOrder, key, b.lastKey)
	}
	need := entrySize(key, payload)
	if leafHeaderSize+4+need > b.pageSize {
		return ErrEntryTooLarge
	}
	if leafHeaderSize+4*(len(b.offs)+1)+len(b.entries)+need > b.pageSize {
		if err := b.flushLeaf(); err != nil {
			return err
		}
	}
	b.offs = append(b.offs, uint32(len(b.entries)))
	b.entries = binary.AppendUvarint(b.entries, uint64(len(key)))
	b.entries = append(b.entries, key...)
	b.entries = append(b.entries, payload...)
	b.lastKey = append(b.lastKey[:0], key...)
	b.count++
	return nil
}

func entrySize(key, payload []byte) int {
	return uvarintLen(uint64(len(key))) + len(key) + len(payload)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func (b *Builder) flushLeaf() error {
	n := len(b.offs)
	if n == 0 {
		return nil
	}
	page := append(b.page[:0], pageLeaf)
	page = binary.BigEndian.AppendUint32(page, uint32(n))
	page = binary.BigEndian.AppendUint64(page, uint64(b.count-int64(n)))
	// The slot directory holds page offsets; the entries follow it.
	base := uint32(leafHeaderSize + 4*n)
	for _, off := range b.offs {
		page = binary.BigEndian.AppendUint32(page, base+off)
	}
	page = append(page, b.entries...)
	pageNo, err := b.store.AppendPage(b.file, page)
	if err != nil {
		return err
	}
	// The route's first key moves to routeKeys: the entry buffer is about
	// to be overwritten and the route lives until Finish.
	keyLen, w := binary.Uvarint(b.entries)
	r := routeEntry{keyOff: uint32(len(b.routeKeys)), keyLen: uint32(keyLen), page: uint32(pageNo)}
	b.routeKeys = append(b.routeKeys, b.entries[w:w+int(keyLen)]...)
	b.pushRoute(0, r)
	b.entries = b.entries[:0]
	b.offs = b.offs[:0]
	return nil
}

// pushRoute queues r on level. A level past the end reuses the (emptied)
// route slice a recycled builder kept there.
func (b *Builder) pushRoute(level int, r routeEntry) {
	for len(b.levels) <= level {
		if len(b.levels) < cap(b.levels) {
			b.levels = b.levels[:len(b.levels)+1]
		} else {
			b.levels = append(b.levels, nil)
		}
	}
	b.levels[level] = append(b.levels[level], r)
}

func (b *Builder) writeInternal(level int, routes []routeEntry) (uint32, error) {
	page := append(b.page[:0], pageInternal)
	page = binary.BigEndian.AppendUint32(page, uint32(len(routes)))
	// The slot directory is filled in as the entries are placed; the page
	// buffer has room for it because internalFits fitted the page.
	slotBase := len(page)
	page = page[:slotBase+4*len(routes)]
	for i, r := range routes {
		binary.BigEndian.PutUint32(page[slotBase+4*i:], uint32(len(page)))
		page = binary.AppendUvarint(page, uint64(r.keyLen))
		page = append(page, b.routeKeys[r.keyOff:r.keyOff+r.keyLen]...)
		page = binary.BigEndian.AppendUint32(page, r.page)
	}
	pageNo, err := b.store.AppendPage(b.file, page)
	if err != nil {
		return 0, err
	}
	return uint32(pageNo), nil
}

// internalCapacity returns how many routing entries fit on one page given
// the accumulated byte size of the candidate entries.
func (b *Builder) internalFits(routes []routeEntry) int {
	bytes := internalHeaderSize
	for i, r := range routes {
		bytes += 4 + uvarintLen(uint64(r.keyLen)) + int(r.keyLen) + 4
		if bytes > b.pageSize {
			return i
		}
	}
	return len(routes)
}

// EncodedFilter is the key filter of a component, opaque to the tree:
// FinishWithFilter writes its EncodedLen bytes into the file a page at a
// time, each appended to the builder's page buffer by AppendEncoded.
type EncodedFilter interface {
	EncodedLen() int
	// AppendEncoded appends bytes [off, off+n) of the encoding to dst.
	AppendEncoded(dst []byte, off, n int) []byte
}

// Finish completes a tree that carries no filter; see FinishWithFilter.
func (b *Builder) Finish() (*Reader, error) { return b.FinishWithFilter(nil) }

// FinishWithFilter flushes remaining data, writes the internal levels, then
// filter's encoding (when filter is non-nil) as the file's next pages, cut
// at the page size, and last the meta page, which records the filter's
// first page and length (Reader.AppendFilter reads it back). Without a
// filter the meta page is the one Finish writes. It opens a Reader over the
// completed tree. A failed finish deletes the file, as Abort does. Either
// way b goes back to the free list.
func (b *Builder) FinishWithFilter(filter EncodedFilter) (*Reader, error) {
	if b.done {
		return nil, errors.New("btree: builder already finished")
	}
	b.done = true
	r, err := b.finish(filter)
	if err != nil {
		b.store.Delete(b.file)
	}
	b.release()
	return r, err
}

func (b *Builder) finish(filter EncodedFilter) (*Reader, error) {
	if err := b.flushLeaf(); err != nil {
		return nil, err
	}
	numLeaves := 0
	if len(b.levels) > 0 {
		numLeaves = len(b.levels[0])
	}
	// Build internal levels bottom-up until a level has a single page.
	rootPage := uint32(0)
	height := 0
	if numLeaves > 0 {
		level := 0
		for {
			routes := b.levels[level]
			if len(routes) == 1 && level > 0 {
				rootPage = routes[0].page
				height = level
				break
			}
			if len(routes) <= 1 && level == 0 {
				// single leaf: it is the root
				if len(routes) == 1 {
					rootPage = routes[0].page
					height = 0
				}
				break
			}
			// pack routes into internal pages
			rest := routes
			for len(rest) > 0 {
				n := b.internalFits(rest)
				if n == 0 {
					return nil, ErrEntryTooLarge
				}
				pg, err := b.writeInternal(level+1, rest[:n])
				if err != nil {
					return nil, err
				}
				up := rest[0] // the page's first key routes to it
				up.page = pg
				b.pushRoute(level+1, up)
				rest = rest[n:]
			}
			level++
			height = level
		}
	}
	filterPage, filterLen := 0, 0
	if filter != nil {
		filterLen = filter.EncodedLen()
	}
	for off := 0; off < filterLen; off += b.pageSize {
		page := filter.AppendEncoded(b.page[:0], off, min(filterLen-off, b.pageSize))
		pg, err := b.store.AppendPage(b.file, page)
		if err != nil {
			return nil, err
		}
		if off == 0 {
			filterPage = pg
		}
	}
	// meta page: type(1) count(8) root(4) height(2) numLeaves(4), then,
	// when the file carries a filter, filterPage(4) filterLen(4)
	meta := append(b.page[:0], pageMeta)
	meta = binary.BigEndian.AppendUint64(meta, uint64(b.count))
	meta = binary.BigEndian.AppendUint32(meta, rootPage)
	meta = binary.BigEndian.AppendUint16(meta, uint16(height))
	meta = binary.BigEndian.AppendUint32(meta, uint32(numLeaves))
	if filterLen > 0 {
		meta = binary.BigEndian.AppendUint32(meta, uint32(filterPage))
		meta = binary.BigEndian.AppendUint32(meta, uint32(filterLen))
	}
	if _, err := b.store.AppendPage(b.file, meta); err != nil {
		return nil, err
	}
	return Open(b.store, b.file)
}

// Abort discards a partially built tree and gives b back to the free list.
func (b *Builder) Abort() {
	if !b.done {
		b.done = true
		b.store.Delete(b.file)
		b.release()
	}
}

// FileID returns the file being built.
func (b *Builder) FileID() storage.FileID { return b.file }
