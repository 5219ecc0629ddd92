package btree

import (
	"bytes"
	"encoding/binary"
	"errors"

	"repro/internal/cache"
	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// ErrCorrupt reports a malformed page.
var ErrCorrupt = errors.New("btree: corrupt page")

// Reader provides searches and scans over a bulk-loaded tree.
type Reader struct {
	store     *storage.Store
	env       *metrics.Env
	file      storage.FileID
	root      uint32
	height    int
	numLeaves int
	count     int64
	numPages  int
	// filterPage and filterLen locate the component's filter pages (see
	// Builder.FinishWithFilter); filterLen is 0 when the file carries none.
	filterPage int
	filterLen  int
}

// Meta page sizes: without a filter, and with one.
const (
	metaSize       = 19
	metaFilterSize = metaSize + 8
)

// Open reads the meta page of a completed tree.
func Open(store *storage.Store, file storage.FileID) (*Reader, error) {
	n, err := store.NumPages(file)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, ErrCorrupt
	}
	f, err := store.ReadPage(file, n-1, false)
	if err != nil {
		return nil, err
	}
	defer store.Unpin(f)
	meta := f.Data
	if len(meta) < metaSize || meta[0] != pageMeta {
		return nil, ErrCorrupt
	}
	r := &Reader{
		store:     store,
		env:       store.Env(),
		file:      file,
		count:     int64(binary.BigEndian.Uint64(meta[1:])),
		root:      binary.BigEndian.Uint32(meta[9:]),
		height:    int(binary.BigEndian.Uint16(meta[13:])),
		numLeaves: int(binary.BigEndian.Uint32(meta[15:])),
		numPages:  n,
	}
	if len(meta) >= metaFilterSize {
		r.filterPage = int(binary.BigEndian.Uint32(meta[metaSize:]))
		r.filterLen = int(binary.BigEndian.Uint32(meta[metaSize+4:]))
	}
	return r, nil
}

// AppendFilter appends the filter the file carries (Builder.
// FinishWithFilter) to dst, and returns dst unchanged when it carries none.
// The pages are read as a merge reads its inputs (Store.ReadStreamed):
// charged like a cold scan and never cached. Pages that do not add up to
// the recorded length are ErrCorrupt.
func (r *Reader) AppendFilter(dst []byte) ([]byte, error) {
	want := len(dst) + r.filterLen
	var w storage.Window
	for p := r.filterPage; len(dst) < want; p++ {
		if p >= r.numPages-1 { // the last page is the meta page
			return dst, ErrCorrupt
		}
		f, err := r.store.ReadStreamed(r.file, p, &w)
		if err != nil {
			return dst, err
		}
		dst = append(dst, f.Data...)
		r.store.Unpin(f)
	}
	if len(dst) != want {
		return dst, ErrCorrupt
	}
	return dst, nil
}

// Rebind switches the reader onto another store view of the same disk
// (typically from a background-lane store back to the foreground store
// before a freshly built component is installed). Call it before the
// reader is shared; it is not synchronized with concurrent searches.
func (r *Reader) Rebind(store *storage.Store) {
	r.store = store
	r.env = store.Env()
}

// CloneFor returns a shallow reader over the same tree charging the given
// store view (background merges scan inputs on their own I/O lane without
// disturbing concurrent foreground readers).
func (r *Reader) CloneFor(store *storage.Store) *Reader {
	cp := *r
	cp.store = store
	cp.env = store.Env()
	return &cp
}

// NumEntries returns the number of entries in the tree.
func (r *Reader) NumEntries() int64 { return r.count }

// SizeBytes approximates the on-disk size of the file: the tree and the
// filter pages it carries.
func (r *Reader) SizeBytes() int64 { return int64(r.numPages) * int64(r.store.PageSize()) }

// FileID returns the backing file.
func (r *Reader) FileID() storage.FileID { return r.file }

// compareCharged compares keys, charging one comparison when env is non-nil.
func compareCharged(env *metrics.Env, a, b []byte) int {
	if env != nil {
		env.ChargeCompare(1)
	}
	return bytes.Compare(a, b)
}

// page is a view over the raw bytes of one leaf or internal page, held by
// value and decoding one slot at a time: a visit parses the header, checks
// that the slot directory lies inside the page, and then touches only the
// slots the search compares, so it allocates nothing. A page read through
// the buffer cache holds its frame's pin; raw, and every key and entry
// decoded from it, is valid until unpin.
type page struct {
	raw     []byte
	frame   *cache.Frame
	pageNo  int
	typ     byte
	n       int
	ordinal int64 // leaves: ordinal of first entry
	base    int   // offset of the slot directory
}

// readPage returns page pageNo pinned; the caller unpins it.
func (r *Reader) readPage(pageNo int, seqHint bool) (page, error) {
	f, err := r.store.ReadPage(r.file, pageNo, seqHint)
	if err != nil {
		return page{}, err
	}
	return r.view(f, pageNo)
}

// view returns the pinned frame f as page pageNo, or unpins it when it is
// malformed.
func (r *Reader) view(f *cache.Frame, pageNo int) (page, error) {
	p, err := viewPage(f.Data, pageNo)
	if err != nil {
		r.store.Unpin(f)
		return page{}, err
	}
	p.frame = f
	return p, nil
}

// unpin releases p's frame, if it holds one, and empties p.
func (r *Reader) unpin(p *page) {
	if p.frame != nil {
		r.store.Unpin(p.frame)
	}
	*p = page{}
}

// viewPage validates the header and the extent of the slot directory; the
// slots themselves are validated as they are read.
func viewPage(raw []byte, pageNo int) (page, error) {
	if len(raw) < 1 {
		return page{}, ErrCorrupt
	}
	p := page{raw: raw, pageNo: pageNo, typ: raw[0]}
	switch p.typ {
	case pageLeaf:
		if len(raw) < leafHeaderSize {
			return page{}, ErrCorrupt
		}
		p.ordinal = int64(binary.BigEndian.Uint64(raw[5:]))
		p.base = leafHeaderSize
	case pageInternal:
		if len(raw) < internalHeaderSize {
			return page{}, ErrCorrupt
		}
		p.base = internalHeaderSize
	default:
		return page{}, ErrCorrupt
	}
	n := binary.BigEndian.Uint32(raw[1:])
	if uint64(p.base)+4*uint64(n) > uint64(len(raw)) {
		return page{}, ErrCorrupt
	}
	p.n = int(n)
	return p, nil
}

// slot decodes entry i: its key and the bytes after it (a leaf's payload,
// which ends where the next slot starts; an internal page's child number).
func (p *page) slot(i int) (key, rest []byte, err error) {
	if uint(i) >= uint(p.n) {
		return nil, nil, ErrCorrupt
	}
	raw, at := p.raw, p.base+4*i
	off, end := int(binary.BigEndian.Uint32(raw[at:])), len(raw)
	if p.typ == pageLeaf && i+1 < p.n {
		end = int(binary.BigEndian.Uint32(raw[at+4:]))
	}
	if off >= len(raw) || end > len(raw) || off > end {
		return nil, nil, ErrCorrupt
	}
	klen, m := binary.Uvarint(raw[off:end])
	if m <= 0 || klen > uint64(end-off-m) {
		return nil, nil, ErrCorrupt
	}
	k := off + m + int(klen)
	return raw[off+m : k], raw[k:end], nil
}

// key returns slot i's key.
func (p *page) key(i int) ([]byte, error) {
	key, _, err := p.slot(i)
	return key, err
}

// child returns the page number internal slot i routes to.
func (p *page) child(i int) (int, error) {
	_, rest, err := p.slot(i)
	if err != nil || len(rest) < 4 {
		return 0, ErrCorrupt
	}
	return int(binary.BigEndian.Uint32(rest)), nil
}

// search binary-searches slots [lo, hi) for key, returning the index of the
// first entry >= key (possibly hi), charging one comparison per probe.
func (p *page) search(env *metrics.Env, lo, hi int, key []byte) (int, error) {
	for lo < hi {
		mid := (lo + hi) / 2
		k, err := p.key(mid)
		if err != nil {
			return 0, err
		}
		if compareCharged(env, k, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// holds reports whether slot i exists and carries exactly key.
func (p *page) holds(i int, key []byte) (bool, error) {
	if i >= p.n {
		return false, nil
	}
	k, err := p.key(i)
	return bytes.Equal(k, key), err
}

// descendToLeaf walks root-to-leaf and returns the leaf that may contain
// key, pinned; each internal page is unpinned once its child is picked.
// The tree must not be empty.
func (r *Reader) descendToLeaf(key []byte) (page, error) {
	pageNo := int(r.root)
	// A well-formed tree reaches a leaf after height internal pages; more
	// means a corrupt child pointer (possibly a cycle).
	for visits := 0; visits <= r.height; visits++ {
		p, err := r.readPage(pageNo, false)
		if err != nil || p.typ == pageLeaf {
			return p, err
		}
		pageNo, err = p.route(r.env, key)
		r.unpin(&p)
		if err != nil {
			return page{}, err
		}
	}
	return page{}, ErrCorrupt
}

// route returns the child of internal page p whose subtree may hold key:
// the last child whose first key <= key.
func (p *page) route(env *metrics.Env, key []byte) (int, error) {
	idx, err := p.search(env, 0, p.n, key)
	if err != nil {
		return 0, err
	}
	if eq, err := p.holds(idx, key); err != nil {
		return 0, err
	} else if !eq && idx > 0 {
		idx--
	}
	return p.child(idx)
}

// Get performs a point lookup and reports the key's ordinal position in the
// tree and whether it was found. When it was and visit is non-nil, visit
// runs with the entry and its ordinal while the leaf is pinned: the entry's
// bytes are the cached page's and are valid only until visit returns.
func (r *Reader) Get(key []byte, visit func(e kv.Entry, ordinal int64)) (int64, bool, error) {
	if r.count == 0 {
		return 0, false, nil
	}
	leaf, err := r.descendToLeaf(key)
	if err != nil {
		return 0, false, err
	}
	defer r.unpin(&leaf)
	idx, err := leaf.search(r.env, 0, leaf.n, key)
	if err != nil {
		return 0, false, err
	}
	e, ord, found, err := leaf.found(r.env, idx, key)
	if found && visit != nil {
		visit(e, ord)
	}
	return ord, found, err
}

// found finishes a point lookup that searched the leaf to idx: the entry
// there when it carries key, with its ordinal, charging one decode.
func (p *page) found(env *metrics.Env, idx int, key []byte) (kv.Entry, int64, bool, error) {
	if idx >= p.n {
		return kv.Entry{}, 0, false, nil
	}
	k, payload, err := p.slot(idx)
	if err != nil || !bytes.Equal(k, key) {
		return kv.Entry{}, 0, false, err
	}
	env.ChargeDecode(1)
	e, err := kv.DecodePayload(payload, k)
	if err != nil {
		return kv.Entry{}, 0, false, err
	}
	return e, p.ordinal + int64(idx), true, nil
}
