package bloom

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
)

// V2 is the runtime read-path filter: a split-block Bloom filter in the
// style of Impala/Parquet. Each block is one 64-byte cache line holding
// eight 64-bit words; a key sets (and tests) exactly one bit in each word,
// with the bit index derived by multiplying the key hash with a per-word
// odd constant. A membership test therefore touches a single cache line,
// performs no modulo operations, and allocates nothing.
//
// Standard and Blocked (bloom.go) remain the paper's Section 3.2 cost-model
// variants; V2 exists to make real (wall-clock) point reads fast and to be
// written into its component's file (AppendTo, UnmarshalV2) so reopen does
// not rebuild filters by scanning every component.
type V2 struct {
	words  []uint64 // v2WordsPerBlock words per block, laid out block-major
	blocks uint64
}

const (
	v2WordsPerBlock = 8 // 8 x uint64 = one 64-byte cache line
	v2BlockBytes    = v2WordsPerBlock * 8
	// v2K is the effective probe count: one bit per word in the block.
	v2K = v2WordsPerBlock
)

// v2Salts are the per-word odd multipliers (from the Kirsch-Mitzenmacher
// multiply-shift family, as used by Impala's split Bloom filter): bit index
// for word w is the top 6 bits of hash*salt[w].
var v2Salts = [v2WordsPerBlock]uint64{
	0x47b6137b44974d91, 0x8824ad5ba2b7289d,
	0x705495c72df1424b, 0x9efc49475c6bfb31,
	0x5c6bfb31705495c7, 0x44974d9147b6137b,
	0xa2b7289d8824ad5b, 0x2df1424b9efc4947,
}

// hashV2 is a fast non-cryptographic 64-bit hash (xxhash-style: 8-byte
// lanes folded with multiply-rotate, murmur-style avalanche finish). It is
// allocation-free and only used by V2, so its values are independent of the
// FNV-based cost-model filters.
func hashV2(key []byte) uint64 {
	const (
		p1 = 0x9e3779b185ebca87
		p2 = 0xc2b2ae3d27d4eb4f
		p3 = 0x165667b19e3779f9
	)
	h := uint64(len(key))*p1 + p3
	for len(key) >= 8 {
		h ^= binary.LittleEndian.Uint64(key) * p2
		h = bits.RotateLeft64(h, 31) * p1
		key = key[8:]
	}
	if len(key) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(key)) * p2
		h = bits.RotateLeft64(h, 23) * p1
		key = key[4:]
	}
	for _, c := range key {
		h ^= uint64(c) * p2
		h = bits.RotateLeft64(h, 11) * p1
	}
	// Avalanche (xxhash64 finalizer).
	h ^= h >> 33
	h *= p2
	h ^= h >> 29
	h *= p3
	h ^= h >> 32
	return h
}

// NewV2 sizes a split-block filter for n keys at bitsPerKey, rounded up to
// whole cache-line blocks.
func NewV2(n int, bitsPerKey float64) *V2 {
	if n < 1 {
		n = 1
	}
	m := uint64(math.Ceil(float64(n) * bitsPerKey))
	blocks := (m + v2BlockBytes*8 - 1) / (v2BlockBytes * 8)
	if blocks < 1 {
		blocks = 1
	}
	return &V2{
		words:  make([]uint64, blocks*v2WordsPerBlock),
		blocks: blocks,
	}
}

// NewV2FPR sizes a split-block filter for the target false-positive rate.
// Like the blocked variant it pays one extra bit per key over the standard
// filter's optimum to compensate for per-block load variance.
func NewV2FPR(n int, fpr float64) *V2 {
	return NewV2(n, BitsPerKeyFor(fpr)+1)
}

// blockOf maps a hash onto a block index without a modulo, using the
// high-multiply fast-range reduction.
func (f *V2) blockOf(h uint64) uint64 {
	hi, _ := bits.Mul64(h, f.blocks)
	return hi
}

// Add inserts a key: one bit per word of the key's block.
func (f *V2) Add(key []byte) {
	h := hashV2(key)
	base := f.blockOf(h) * v2WordsPerBlock
	block := f.words[base : base+v2WordsPerBlock : base+v2WordsPerBlock]
	for w := range block {
		block[w] |= 1 << ((h * v2Salts[w]) >> 58)
	}
}

// MayContain implements Filter; exactly one cache line is touched and the
// eight word probes are independent (no data-dependent short-circuit chain
// across cache lines).
func (f *V2) MayContain(key []byte) (bool, int) {
	h := hashV2(key)
	base := f.blockOf(h) * v2WordsPerBlock
	block := f.words[base : base+v2WordsPerBlock : base+v2WordsPerBlock]
	for w := range block {
		if block[w]&(1<<((h*v2Salts[w])>>58)) == 0 {
			return false, 1
		}
	}
	return true, 1
}

// NumBits implements Filter.
func (f *V2) NumBits() int { return int(f.blocks) * v2BlockBytes * 8 }

// K returns the number of word probes per test (for cost charging).
func (f *V2) K() int { return v2K }

// Encoding header: magic, format version, then the block count and raw
// words.
const (
	v2Magic   = "bfv2"
	v2Version = 1
	v2Header  = len(v2Magic) + 1 + 8
)

// AppendTo appends the filter's encoding to dst: magic ("bfv2"), a version
// byte, the block count as a little-endian uint64, then blocks*64 bytes of
// little-endian filter words.
func (f *V2) AppendTo(dst []byte) []byte {
	return f.AppendEncoded(dst, 0, f.EncodedLen())
}

// EncodedLen returns the length of the filter's encoding.
func (f *V2) EncodedLen() int { return v2Header + len(f.words)*8 }

// AppendEncoded appends bytes [off, off+n) of the encoding AppendTo writes
// to dst, so a component builder can write the filter a page at a time
// through the one page buffer it reuses (btree.EncodedFilter).
func (f *V2) AppendEncoded(dst []byte, off, n int) []byte {
	end := off + n
	var hdr [v2Header]byte
	copy(hdr[:], v2Magic)
	hdr[len(v2Magic)] = v2Version
	binary.LittleEndian.PutUint64(hdr[len(v2Magic)+1:], f.blocks)
	for ; off < end && off < v2Header; off++ {
		dst = append(dst, hdr[off])
	}
	for off < end {
		i := off - v2Header
		w := f.words[i/8]
		if i%8 == 0 && end-off >= 8 {
			dst = binary.LittleEndian.AppendUint64(dst, w)
			off += 8
			continue
		}
		dst = append(dst, byte(w>>(8*(i%8))))
		off++
	}
	return dst
}

// ErrCorruptFilter reports a malformed V2 encoding.
var ErrCorruptFilter = errors.New("bloom: corrupt v2 filter encoding")

// UnmarshalV2 decodes a filter produced by AppendTo. Corrupt input returns
// ErrCorruptFilter (wrapped), never a panic; callers fall back to rebuilding
// the filter by scanning the component.
func UnmarshalV2(data []byte) (*V2, error) {
	if len(data) < v2Header {
		return nil, errors.Join(ErrCorruptFilter, errors.New("short header"))
	}
	if string(data[:len(v2Magic)]) != v2Magic {
		return nil, errors.Join(ErrCorruptFilter, errors.New("bad magic"))
	}
	if data[len(v2Magic)] != v2Version {
		return nil, errors.Join(ErrCorruptFilter, errors.New("unknown version"))
	}
	blocks := binary.LittleEndian.Uint64(data[len(v2Magic)+1:])
	if blocks < 1 || blocks > uint64(len(data)) {
		return nil, errors.Join(ErrCorruptFilter, errors.New("implausible block count"))
	}
	body := data[v2Header:]
	if uint64(len(body)) != blocks*v2BlockBytes {
		return nil, errors.Join(ErrCorruptFilter, errors.New("body length mismatch"))
	}
	f := &V2{words: make([]uint64, blocks*v2WordsPerBlock), blocks: blocks}
	for i := range f.words {
		f.words[i] = binary.LittleEndian.Uint64(body[i*8:])
	}
	return f, nil
}
