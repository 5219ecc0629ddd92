// Package bloom provides the two Bloom filter variants evaluated in
// Section 3.2 of the paper: Standard, a classic filter whose k probes may
// each touch a distinct cache line, and V2 (v2.go), a blocked (split-block)
// filter in the style of Putze et al. whose hash selects one
// cache-line-sized block that every probe stays inside, at the cost of one
// extra bit per key for the same false-positive rate. V2 is also the
// runtime filter every served component carries and writes into its file.
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
	// model: a standard filter touches up to k, V2 one).
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
	// KindV2 is the blocked filter (Section 3.2), the runtime split-block
	// V2 and the only variant with a persisted form (V2.AppendTo), written
	// into its component's file.
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

// NewStandardFPR sizes a standard filter for the target false-positive rate.
func NewStandardFPR(n int, fpr float64) *Standard {
	return NewStandard(n, BitsPerKeyFor(fpr))
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
