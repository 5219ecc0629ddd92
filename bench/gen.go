package main

import (
	"encoding/binary"
	"math"
)

// Keys and records are pure functions of (seed, client, key index, write
// sequence), so the model keeps one uint32 per key — the sequence number of
// the write that produced the key's current record — and regenerates the
// expected bytes into a reused buffer instead of storing them. Records use
// internal/workload's tweet layout (creation(8) | user(4) | msgLen(2) |
// message), so workload.UserIDOf and workload.CreationOf index them.

const (
	recHeader = 14
	msgMin    = 450 // the paper's 450-550 byte messages, ~500-byte records
	msgSpan   = 101
)

// mix64 is the splitmix64 finalizer: a bijection on uint64, so distinct
// inputs give distinct keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rng is xorshift64*: allocation-free and seedable per client.
type rng uint64

func newRNG(seed uint64) rng { return rng(mix64(seed) | 1) }

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545f4914f6cdd1d
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int { return int((r.next() >> 11) % uint64(n)) }

// float returns a uniform float in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// keyID is the primary key of client c's i-th key. The two clients own
// disjoint key sets: (i, c) pairs are distinct and mix64 is a bijection.
func keyID(seed uint64, c, i int) uint64 {
	return mix64(mix64(seed) + (uint64(i)<<1 | uint64(c)))
}

func putPK(dst []byte, id uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, id)
}

func recordHash(id uint64, seq uint32) uint64 {
	return mix64(id ^ (uint64(seq)+1)*0x9e3779b97f4a7c15)
}

// userOf is the user id of the record written to key id by write seq.
func userOf(id uint64, seq uint32) uint32 {
	return uint32(recordHash(id, seq) % userRange)
}

// creationOf is the creation time of client c's seq-th write: the clients'
// clocks interleave, so creation grows with wall time across both.
func creationOf(c int, seq uint32) int64 { return int64(seq)*nClients + int64(c) + 1 }

// recordLen is len(appendRecord(nil, id, seq, c)) without generating it.
func recordLen(id uint64, seq uint32) int {
	return recHeader + msgMin + int((recordHash(id, seq)>>32)%msgSpan)
}

// appendRecord appends the record that write seq of client c stored under
// key id.
func appendRecord(dst []byte, id uint64, seq uint32, c int) []byte {
	h := recordHash(id, seq)
	n := msgMin + int((h>>32)%msgSpan)
	dst = binary.BigEndian.AppendUint64(dst, uint64(creationOf(c, seq)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(h%userRange))
	dst = binary.BigEndian.AppendUint16(dst, uint16(n))
	r := newRNG(h)
	for n > 0 {
		x := r.next()
		for k := 0; k < 8 && n > 0; k++ {
			dst = append(dst, 'a'+byte(x)%26)
			x >>= 8
			n--
		}
	}
	return dst
}

// zipf samples ranks [0, n) from Zipf(theta) with the rejection-free
// construction of Gray et al. that YCSB uses; rank 0 is the hottest.
type zipf struct {
	n                     int
	theta, alpha, zetaN   float64
	eta, secondRankCutoff float64
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta)}
	for i := 1; i <= n; i++ {
		z.zetaN += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	z.secondRankCutoff = zeta2
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetaN)
	return z
}

func (z *zipf) sample(u float64) int {
	uz := u * z.zetaN
	if uz < 1 {
		return 0
	}
	if uz < z.secondRankCutoff {
		return 1
	}
	r := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}
