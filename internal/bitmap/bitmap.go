// Package bitmap provides the two bitmap flavors from the paper:
//
//   - Immutable: written once by an index-repair operation (Section 4.4,
//     Fig 7) to mark obsolete secondary-index entries; readers skip entries
//     whose bit is 1 and the entries are physically removed at the next merge.
//   - Mutable: attached to primary/primary-key-index disk components by the
//     Mutable-bitmap strategy (Section 5); writers flip bits 0->1 to delete
//     records in immutable components (aborts flip 1->0), using
//     compare-and-swap so two writers never lose an update.
//
// The package also implements the side-file used by the Side-file
// concurrency-control method for concurrent flush/merge (Section 5.3).
package bitmap

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrCorrupt reports a malformed serialized bitmap.
var ErrCorrupt = errors.New("bitmap: corrupt serialized bitmap")

// appendWords serializes (n, words) as a varint length plus little-endian
// 64-bit words — the common wire form of both bitmap flavors, used by the
// durable manifest.
func appendWords(dst []byte, n int64, words []uint64) []byte {
	dst = binary.AppendVarint(dst, n)
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// decodeWords parses appendWords output.
func decodeWords(data []byte) (n int64, words []uint64, err error) {
	n, k := binary.Varint(data)
	if k <= 0 || n < 0 {
		return 0, nil, ErrCorrupt
	}
	data = data[k:]
	nw := int((n + 63) / 64)
	if len(data) != nw*8 {
		return 0, nil, ErrCorrupt
	}
	words = make([]uint64, nw)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	return n, words, nil
}

// Immutable is a fixed bitmap over entry ordinals; bit=1 marks the entry
// invalid (obsolete). The zero-length bitmap treats every entry as valid.
type Immutable struct {
	bits []uint64
	n    int64
}

// NewImmutable creates an all-zero (all-valid) bitmap of n bits.
func NewImmutable(n int64) *Immutable {
	return &Immutable{bits: make([]uint64, (n+63)/64), n: n}
}

// Set marks ordinal i invalid. Only used while the bitmap is being built.
func (b *Immutable) Set(i int64) {
	if i >= 0 && i < b.n {
		b.bits[i/64] |= 1 << (uint(i) % 64)
	}
}

// IsSet reports whether ordinal i is marked invalid.
func (b *Immutable) IsSet(i int64) bool {
	if b == nil || i < 0 || i >= b.n {
		return false
	}
	return b.bits[i/64]&(1<<(uint(i)%64)) != 0
}

// Count returns the number of invalid entries.
func (b *Immutable) Count() int64 {
	if b == nil {
		return 0
	}
	var c int64
	for _, w := range b.bits {
		for ; w != 0; w &= w - 1 {
			c++
		}
	}
	return c
}

// Len returns the number of bits.
func (b *Immutable) Len() int64 {
	if b == nil {
		return 0
	}
	return b.n
}

// AppendTo appends the bitmap's serialized form to dst for the durable
// manifest. A nil bitmap appends nothing.
func (b *Immutable) AppendTo(dst []byte) []byte {
	if b == nil {
		return dst
	}
	return appendWords(dst, b.n, b.bits)
}

// UnmarshalImmutable reconstructs an immutable bitmap from what AppendTo
// wrote; empty input yields a nil bitmap.
func UnmarshalImmutable(data []byte) (*Immutable, error) {
	if len(data) == 0 {
		return nil, nil
	}
	n, words, err := decodeWords(data)
	if err != nil {
		return nil, err
	}
	return &Immutable{bits: words, n: n}, nil
}

// Mutable is a concurrently updatable validity bitmap. Bits are flipped with
// compare-and-swap, the in-memory analogue of the paper's latching /
// compare-and-swap requirement for bitmap bytes (Section 5.2).
type Mutable struct {
	bits []uint64 // accessed atomically
	n    int64
}

// NewMutable creates an all-valid mutable bitmap of n bits.
func NewMutable(n int64) *Mutable {
	return &Mutable{bits: make([]uint64, (n+63)/64), n: n}
}

// Set marks ordinal i deleted (0 -> 1). It reports whether the bit changed.
func (b *Mutable) Set(i int64) bool {
	if i < 0 || i >= b.n {
		return false
	}
	addr := &b.bits[i/64]
	mask := uint64(1) << (uint(i) % 64)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return true
		}
	}
}

// Unset clears ordinal i (1 -> 0); used only by transaction aborts.
func (b *Mutable) Unset(i int64) bool {
	if i < 0 || i >= b.n {
		return false
	}
	addr := &b.bits[i/64]
	mask := uint64(1) << (uint(i) % 64)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask == 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old&^mask) {
			return true
		}
	}
}

// IsSet reports whether ordinal i is marked deleted.
func (b *Mutable) IsSet(i int64) bool {
	if b == nil || i < 0 || i >= b.n {
		return false
	}
	return atomic.LoadUint64(&b.bits[i/64])&(1<<(uint(i)%64)) != 0
}

// Len returns the number of bits.
func (b *Mutable) Len() int64 {
	if b == nil {
		return 0
	}
	return b.n
}

// Count returns the number of deleted entries.
func (b *Mutable) Count() int64 {
	if b == nil {
		return 0
	}
	var c int64
	for i := range b.bits {
		w := atomic.LoadUint64(&b.bits[i])
		for ; w != 0; w &= w - 1 {
			c++
		}
	}
	return c
}

// AppendTo appends the bitmap's current state, serialized, to dst for the
// durable manifest. Concurrent Sets may or may not be captured — the
// manifest's WAL replay re-applies any that are not (Set is idempotent). A
// nil bitmap appends nothing.
func (b *Mutable) AppendTo(dst []byte) []byte {
	if b == nil {
		return dst
	}
	dst = binary.AppendVarint(dst, b.n)
	for i := range b.bits {
		dst = binary.LittleEndian.AppendUint64(dst, atomic.LoadUint64(&b.bits[i]))
	}
	return dst
}

// UnmarshalMutable reconstructs a mutable bitmap from what AppendTo wrote;
// empty input yields a nil bitmap.
func UnmarshalMutable(data []byte) (*Mutable, error) {
	if len(data) == 0 {
		return nil, nil
	}
	n, words, err := decodeWords(data)
	if err != nil {
		return nil, err
	}
	return &Mutable{bits: words, n: n}, nil
}

// Snapshot copies the current state into an Immutable bitmap; the Side-file
// method scans old components against such snapshots so concurrent deletes
// do not interfere with the component builder (Fig 11, initialization phase).
func (b *Mutable) Snapshot() *Immutable {
	if b == nil {
		return nil
	}
	im := NewImmutable(b.n)
	for i := range b.bits {
		im.bits[i] = atomic.LoadUint64(&b.bits[i])
	}
	return im
}

// SideFile buffers keys deleted while a new component is being built
// (Section 5.3, Side-file method). Writers append until the builder closes
// the file; append-after-close fails and the writer falls back to updating
// the new component directly.
type SideFile struct {
	mu     sync.Mutex
	keys   [][]byte
	closed bool
}

// NewSideFile returns an open, empty side-file.
func NewSideFile() *SideFile { return &SideFile{} }

// Append adds a deleted key; it reports false if the side-file is closed.
func (s *SideFile) Append(key []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.keys = append(s.keys, append([]byte(nil), key...))
	return true
}

// Close seals the side-file and returns the buffered keys.
func (s *SideFile) Close() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return s.keys
}

// Len returns the number of buffered keys.
func (s *SideFile) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys)
}
