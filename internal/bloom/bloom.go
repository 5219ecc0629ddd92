// Package bloom provides the two Bloom filter variants evaluated in
// Section 3.2 of the paper: a standard Bloom filter, whose k probes may each
// touch a distinct cache line, and a cache-friendly blocked Bloom filter
// (Putze et al.) whose first hash selects one cache-line-sized block and
// whose remaining probes stay inside it, at the cost of roughly one extra
// bit per key for the same false-positive rate.
//
// Membership tests report how many cache lines were touched so the caller
// can charge the virtual clock; the filters themselves are accounting-free.
package bloom

import (
	"encoding/binary"
	"math"
)

// Filter is the membership interface shared by both variants.
type Filter interface {
	// MayContain reports whether key may be present, together with the
	// number of distinct cache lines touched by the test (for the cost
	// model: a standard filter touches up to k, a blocked filter one).
	MayContain(key []byte) (ok bool, cacheLines int)
	// NumBits returns the size of the bit space.
	NumBits() int
}

// Kind names a filter variant; index builders select on it.
type Kind uint8

// Filter variants.
const (
	// KindStandard is the classic filter (the paper's default).
	KindStandard Kind = iota
	// KindBlocked is the paper's cache-friendly variant (Section 3.2), a
	// cost-model ablation.
	KindBlocked
	// KindV2 is the runtime split-block filter, the only variant with a
	// persisted form (V2.AppendTo), written into its component's file.
	KindV2
)

// FNV-1a 64-bit parameters (hash/fnv), inlined below so hash2 stays
// allocation-free on the read hot path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a is hash/fnv's New64a().Write(b).Sum64() without the heap-allocated
// digest. The values are bit-identical to the library implementation, which
// keeps every previously built filter (and the simulator's deterministic
// probe traces) unchanged.
func fnv1a(seed uint64, b []byte) uint64 {
	h := seed
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// hash2 derives the two independent 64-bit hashes used for double hashing
// (g_i = h1 + i*h2), the standard construction for k hash functions.
func hash2(key []byte) (uint64, uint64) {
	h1 := fnv1a(fnvOffset64, key)
	// Second hash: re-hash h1 with a salt, cheap and independent enough.
	var buf [9]byte
	binary.LittleEndian.PutUint64(buf[:], h1)
	buf[8] = 0x9e
	h2 := fnv1a(fnvOffset64, buf[:]) | 1 // force odd so strides cover the space
	return h1, h2
}

// optimalK returns the hash count minimizing FPR for bitsPerKey.
func optimalK(bitsPerKey float64) int {
	k := int(math.Round(bitsPerKey * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return k
}

// Standard is a classic partitioned-by-nothing Bloom filter.
type Standard struct {
	bits []uint64
	m    uint64 // number of bits
	k    int
}

// BitsPerKeyFor returns the bits/key needed for the target false-positive
// rate (m/n = -ln(p)/ln(2)^2). The paper uses p = 1%.
func BitsPerKeyFor(fpr float64) float64 {
	if fpr <= 0 || fpr >= 1 {
		return 10
	}
	return -math.Log(fpr) / (math.Ln2 * math.Ln2)
}

// NewStandard sizes a standard filter for n keys at bitsPerKey.
func NewStandard(n int, bitsPerKey float64) *Standard {
	if n < 1 {
		n = 1
	}
	m := uint64(math.Ceil(float64(n) * bitsPerKey))
	if m < 64 {
		m = 64
	}
	return &Standard{
		bits: make([]uint64, (m+63)/64),
		m:    m,
		k:    optimalK(bitsPerKey),
	}
}

// Add inserts a key.
func (f *Standard) Add(key []byte) {
	h1, h2 := hash2(key)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.m
		f.bits[bit/64] |= 1 << (bit % 64)
	}
}

// MayContain implements Filter. Each probe is assumed to touch a distinct
// cache line (the bit positions are spread over the whole bit space); the
// test short-circuits on the first zero bit, so the touched-line count is
// the number of probes actually performed.
func (f *Standard) MayContain(key []byte) (bool, int) {
	h1, h2 := hash2(key)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.m
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false, i + 1
		}
	}
	return true, f.k
}

// NumBits implements Filter.
func (f *Standard) NumBits() int { return int(f.m) }

// K returns the number of hash functions.
func (f *Standard) K() int { return f.k }

// blockBits is one CPU cache line (64 bytes) of bit space.
const blockBits = 512

// Blocked is a cache-friendly blocked Bloom filter: the first hash selects a
// 512-bit block, the remaining k probes test bits within that block, so a
// membership test costs a single cache miss (Section 3.2). To reach the same
// false-positive rate as a standard filter it is sized with one extra bit
// per key.
type Blocked struct {
	bits   []uint64
	blocks uint64
	k      int
}

// NewBlocked sizes a blocked filter for n keys at bitsPerKey (the caller
// should already have added the extra bit per key; see NewBlockedFPR).
func NewBlocked(n int, bitsPerKey float64) *Blocked {
	if n < 1 {
		n = 1
	}
	m := uint64(math.Ceil(float64(n) * bitsPerKey))
	blocks := (m + blockBits - 1) / blockBits
	if blocks < 1 {
		blocks = 1
	}
	return &Blocked{
		bits:   make([]uint64, blocks*(blockBits/64)),
		blocks: blocks,
		k:      optimalK(bitsPerKey),
	}
}

// NewBlockedFPR sizes a blocked filter for the target false-positive rate,
// adding the extra bit per key the paper notes is required.
func NewBlockedFPR(n int, fpr float64) *Blocked {
	return NewBlocked(n, BitsPerKeyFor(fpr)+1)
}

// NewStandardFPR sizes a standard filter for the target false-positive rate.
func NewStandardFPR(n int, fpr float64) *Standard {
	return NewStandard(n, BitsPerKeyFor(fpr))
}

// Add inserts a key.
func (f *Blocked) Add(key []byte) {
	h1, h2 := hash2(key)
	block := (h1 % f.blocks) * (blockBits / 64)
	for i := 1; i <= f.k; i++ {
		bit := (h1 + uint64(i)*h2) % blockBits
		f.bits[block+bit/64] |= 1 << (bit % 64)
	}
}

// MayContain implements Filter; exactly one cache line is touched.
func (f *Blocked) MayContain(key []byte) (bool, int) {
	h1, h2 := hash2(key)
	block := (h1 % f.blocks) * (blockBits / 64)
	for i := 1; i <= f.k; i++ {
		bit := (h1 + uint64(i)*h2) % blockBits
		if f.bits[block+bit/64]&(1<<(bit%64)) == 0 {
			return false, 1
		}
	}
	return true, 1
}

// NumBits implements Filter.
func (f *Blocked) NumBits() int { return int(f.blocks * blockBits) }

// K returns the number of probes per test.
func (f *Blocked) K() int { return f.k }
