// Package workload implements the paper's synthetic tweet generator
// (Section 6.1): YCSB lacks secondary keys and secondary-index queries, so
// the evaluation uses tweets with a random 64-bit ID primary key, a user id
// uniform in [0, 100K), a monotonically increasing creation time, and a
// random message of 450-550 bytes (~500-byte records). Update streams
// follow either a uniform distribution over past keys or a Zipf
// distribution with theta 0.99, as in YCSB.
package workload

import (
	"math"
	"math/rand"

	"repro/internal/kv"
)

// Tweet is one generated record.
type Tweet struct {
	ID       uint64
	UserID   uint32
	Creation int64
	Message  []byte
}

// Record layout: creation(8) | userID(4) | messageLen(2) | message.
const tweetHeader = 14

// Encode serializes the tweet's non-key attributes as the stored record.
func (t Tweet) Encode() []byte {
	return t.AppendEncode(make([]byte, 0, tweetHeader+len(t.Message)))
}

// AppendEncode appends the record Encode returns to rec.
func (t Tweet) AppendEncode(rec []byte) []byte {
	rec = kv.AppendUint64(rec, uint64(t.Creation))
	rec = append(rec, byte(t.UserID>>24), byte(t.UserID>>16), byte(t.UserID>>8), byte(t.UserID))
	rec = append(rec, byte(len(t.Message)>>8), byte(len(t.Message)))
	return append(rec, t.Message...)
}

// PK returns the tweet's primary key encoding.
func (t Tweet) PK() []byte { return kv.EncodeUint64(t.ID) }

// UserIDOf extracts the user-id secondary key from an encoded record.
func UserIDOf(rec []byte) ([]byte, bool) {
	if len(rec) < tweetHeader {
		return nil, false
	}
	return rec[8:12], true
}

// CreationOf extracts the creation-time filter key from an encoded record.
func CreationOf(rec []byte) (int64, bool) {
	if len(rec) < 8 {
		return 0, false
	}
	return int64(kv.DecodeUint64(rec[:8])), true
}

// UserKey encodes a user id as a secondary search key.
func UserKey(u uint32) []byte {
	return []byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)}
}

// Config tunes the generator.
type Config struct {
	// Seed makes streams reproducible.
	Seed int64
	// UserIDRange bounds user ids (100K in the paper).
	UserIDRange uint32
	// MessageMin/MessageMax bound message lengths (450-550 in the paper).
	MessageMin, MessageMax int
	// SequentialIDs issues primary keys 1,2,3,... instead of random 64-bit
	// integers (the Figure 12b "scan (seq keys)" dataset).
	SequentialIDs bool
	// UpdateRatio is the fraction of upserts hitting past keys.
	UpdateRatio float64
	// ZipfUpdates draws updated keys from a Zipf(0.99) distribution over
	// past keys (recent keys updated more often); otherwise uniform.
	ZipfUpdates bool
	// DuplicateRatio is the fraction of *inserts* re-using past keys
	// (the Figure 13 insert workload's duplicate knob).
	DuplicateRatio float64
}

// DefaultConfig mirrors Section 6.1.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		UserIDRange: 100_000,
		MessageMin:  450,
		MessageMax:  550,
	}
}

// Generator produces tweet streams.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *zipfPast
	// past holds previously issued primary keys, for updates/duplicates.
	past     []uint64
	nextSeq  uint64
	creation int64
	msgBuf   []byte
}

// NewGenerator creates a generator.
func NewGenerator(cfg Config) *Generator {
	if cfg.UserIDRange == 0 {
		cfg.UserIDRange = 100_000
	}
	if cfg.MessageMax < cfg.MessageMin {
		cfg.MessageMax = cfg.MessageMin
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.zipf = newZipfPast(0.99)
	return g
}

// Op is one generated operation. Tweet.Message aliases an internal buffer
// that is reused by the next call to Next; encode or copy it first.
type Op struct {
	Tweet Tweet
	// IsUpdate marks an upsert of a past key (or a duplicate insert).
	IsUpdate bool
}

// Next produces the next operation of the stream.
func (g *Generator) Next() Op {
	g.creation++
	var id uint64
	isUpdate := false
	switch {
	case len(g.past) > 0 && g.cfg.UpdateRatio > 0 && g.rng.Float64() < g.cfg.UpdateRatio:
		id = g.pickPast()
		isUpdate = true
	case len(g.past) > 0 && g.cfg.DuplicateRatio > 0 && g.rng.Float64() < g.cfg.DuplicateRatio:
		// Duplicate insert: a past key, uniformly (Section 6.3.1).
		id = g.past[g.rng.Intn(len(g.past))]
		isUpdate = true
	default:
		id = g.newKey()
		g.past = append(g.past, id)
	}
	msgLen := g.cfg.MessageMin
	if g.cfg.MessageMax > g.cfg.MessageMin {
		msgLen += g.rng.Intn(g.cfg.MessageMax - g.cfg.MessageMin + 1)
	}
	if cap(g.msgBuf) < msgLen {
		g.msgBuf = make([]byte, msgLen)
	}
	msg := g.msgBuf[:msgLen]
	for i := range msg {
		msg[i] = byte('a' + g.rng.Intn(26))
	}
	return Op{
		Tweet: Tweet{
			ID:       id,
			UserID:   uint32(g.rng.Intn(int(g.cfg.UserIDRange))),
			Creation: g.creation,
			Message:  msg,
		},
		IsUpdate: isUpdate,
	}
}

func (g *Generator) newKey() uint64 {
	if g.cfg.SequentialIDs {
		g.nextSeq++
		return g.nextSeq
	}
	for {
		id := g.rng.Uint64()
		if id != 0 {
			return id
		}
	}
}

// pickPast selects a past key uniformly or Zipf-skewed toward recent keys.
func (g *Generator) pickPast() uint64 {
	n := len(g.past)
	if !g.cfg.ZipfUpdates {
		return g.past[g.rng.Intn(n)]
	}
	// Zipf rank 1 = most recent key.
	rank := g.zipf.sample(g.rng, n)
	return g.past[n-rank]
}

// NumPast returns how many distinct keys have been issued.
func (g *Generator) NumPast() int { return len(g.past) }

// PastKey returns the i-th issued key.
func (g *Generator) PastKey(i int) uint64 { return g.past[i] }

// zipfPast samples ranks 1..n from a Zipf distribution with the given
// theta, using the rejection-free approximation of Gray et al. (the same
// construction YCSB uses). The distribution is re-derived cheaply for any
// n, which matters because the key space keeps growing during ingestion.
type zipfPast struct {
	theta float64
	alpha float64
	// cached values for the current n
	n     int
	zetaN float64
	eta   float64
	zeta2 float64
}

func newZipfPast(theta float64) *zipfPast {
	z := &zipfPast{theta: theta, alpha: 1 / (1 - theta)}
	z.zeta2 = zetaStatic(2, theta)
	return z
}

func zetaStatic(n int, theta float64) float64 {
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// refresh recomputes cached constants when n grows materially. An exact
// zeta(n) is O(n); the YCSB incremental update only adds the new terms.
func (z *zipfPast) refresh(n int) {
	if z.n == 0 {
		z.zetaN = zetaStatic(n, z.theta)
	} else {
		for i := z.n + 1; i <= n; i++ {
			z.zetaN += 1 / math.Pow(float64(i), z.theta)
		}
	}
	z.n = n
	z.eta = (1 - math.Pow(2/float64(n), 1-z.theta)) / (1 - z.zeta2/z.zetaN)
}

func (z *zipfPast) sample(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 1
	}
	if n > z.n {
		z.refresh(n)
	}
	u := rng.Float64()
	uz := u * z.zetaN
	if uz < 1 {
		return 1
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 2
	}
	rank := 1 + int(float64(n)*math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank > n {
		rank = n
	}
	return rank
}
