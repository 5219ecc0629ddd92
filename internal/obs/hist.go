package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Bucket layout: values in [0,64) map to width-1 buckets (index ==
// value); larger values split each power-of-two octave into 2^histSubBits
// sub-buckets. See doc.go for the error analysis.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	// histBuckets covers the full non-negative int64 range: the top index
	// is (63-4)<<5 | 31 = 1919, from bucketOf(math.MaxInt64).
	histBuckets = (63-4)*histSub + histSub
)

// bucketOf maps a non-negative nanosecond value to its bucket index.
func bucketOf(v int64) int {
	u := uint64(v)
	if v < 0 {
		u = 0
	}
	if u < 64 {
		return int(u)
	}
	e := uint(bits.Len64(u)) - 1 // ≥ 6
	sub := (u >> (e - histSubBits)) & (histSub - 1)
	return int(uint64(e-4)<<histSubBits | sub)
}

// bucketBounds returns the inclusive [lo, hi] value range of a bucket.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < 64 {
		return int64(idx), int64(idx)
	}
	g := uint(idx) >> histSubBits
	e := g + 4
	sub := uint64(idx) & (histSub - 1)
	if e >= 63 {
		// The top octave's upper halves exceed MaxInt64; clamp.
		l := uint64(1)<<63 | sub<<(63-histSubBits)
		if l > math.MaxInt64 {
			return math.MaxInt64, math.MaxInt64
		}
		return int64(l), math.MaxInt64
	}
	l := uint64(1)<<e | sub<<(e-histSubBits)
	w := uint64(1) << (e - histSubBits)
	return int64(l), int64(l + w - 1)
}

// bucketMid is the representative value a quantile reports for a bucket.
func bucketMid(idx int) int64 {
	lo, hi := bucketBounds(idx)
	return lo + (hi-lo)/2
}

// Hist is a lock-free log-bucketed histogram of nanosecond durations.
// Record is allocation-free and safe for concurrent use; the zero value
// is ready to use. A Hist is large (~15KB) — embed, don't copy.
type Hist struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// Record adds one observation.
func (h *Hist) Record(d time.Duration) { h.RecordNanos(int64(d)) }

// RecordNanos adds one observation in nanoseconds. Negative values clamp
// to zero.
func (h *Hist) RecordNanos(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot captures the histogram as a sparse, JSON-friendly value.
// It allocates; call it from dump paths, not per-request.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{MaxNanos: h.max.Load(), SumNanos: h.sum.Load()}
	for i := range h.counts {
		if n := h.counts[i].Load(); n != 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]uint64)
			}
			s.Buckets[i] = n
			s.Count += int64(n)
		}
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Hist: sparse bucket counts
// keyed by bucket index, plus exact sum and max. Snapshots marshal to
// JSON and support Add/Sub for aggregation and interval deltas.
type HistSnapshot struct {
	Count    int64          `json:"count"`
	SumNanos int64          `json:"sum_ns"`
	MaxNanos int64          `json:"max_ns"`
	Buckets  map[int]uint64 `json:"buckets,omitempty"`
}

// Add returns the element-wise sum of two snapshots (max is the larger
// of the two). Neither input is mutated.
func (s HistSnapshot) Add(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{
		Count:    s.Count + o.Count,
		SumNanos: s.SumNanos + o.SumNanos,
		MaxNanos: max(s.MaxNanos, o.MaxNanos),
	}
	if len(s.Buckets)+len(o.Buckets) > 0 {
		out.Buckets = make(map[int]uint64, len(s.Buckets)+len(o.Buckets))
		for i, n := range s.Buckets {
			out.Buckets[i] += n
		}
		for i, n := range o.Buckets {
			out.Buckets[i] += n
		}
	}
	return out
}

// Sub returns s minus o, for before/after interval deltas of the same
// histogram (bucket counts are monotone, so the difference is exact).
// MaxNanos keeps s's value — a conservative upper bound, since the max
// within the interval is not recoverable from cumulative counters.
// Neither input is mutated.
func (s HistSnapshot) Sub(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{
		Count:    s.Count - o.Count,
		SumNanos: s.SumNanos - o.SumNanos,
		MaxNanos: s.MaxNanos,
	}
	for i, n := range s.Buckets {
		d := n - o.Buckets[i]
		if d != 0 {
			if out.Buckets == nil {
				out.Buckets = make(map[int]uint64, len(s.Buckets))
			}
			out.Buckets[i] = d
		}
	}
	return out
}

// sortedBuckets returns the non-empty bucket indices in ascending order.
func (s HistSnapshot) sortedBuckets() []int {
	idxs := make([]int, 0, len(s.Buckets))
	for i := range s.Buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	return idxs
}

// Quantile returns the q-quantile (0 < q ≤ 1) in nanoseconds using the
// nearest-rank rule, or 0 for an empty snapshot. The result is a bucket
// midpoint, within the histogram's relative error of the true value.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for _, i := range s.sortedBuckets() {
		cum += int64(s.Buckets[i])
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return s.MaxNanos
}

// estMax returns the best max estimate for this snapshot: the exact
// tracked max when it falls inside the top non-empty bucket, otherwise
// that bucket's midpoint (an interval delta keeps only the lifetime max,
// which may predate the interval).
func (s HistSnapshot) estMax() int64 {
	top := -1
	for i := range s.Buckets {
		if i > top {
			top = i
		}
	}
	if top < 0 {
		return 0
	}
	lo, hi := bucketBounds(top)
	if s.MaxNanos >= lo && s.MaxNanos <= hi {
		return s.MaxNanos
	}
	return bucketMid(top)
}

// Summary condenses a snapshot into the percentile digest served by
// /stats. Values are microseconds.
type Summary struct {
	Count      int64 `json:"count"`
	P50Micros  int64 `json:"p50_us"`
	P90Micros  int64 `json:"p90_us"`
	P99Micros  int64 `json:"p99_us"`
	MaxMicros  int64 `json:"max_us"`
	MeanMicros int64 `json:"mean_us"`
}

// Summary computes the percentile digest of the snapshot.
func (s HistSnapshot) Summary() Summary {
	out := Summary{Count: s.Count}
	if s.Count <= 0 {
		return out
	}
	out.P50Micros = s.Quantile(0.50) / 1000
	out.P90Micros = s.Quantile(0.90) / 1000
	out.P99Micros = s.Quantile(0.99) / 1000
	out.MaxMicros = s.estMax() / 1000
	out.MeanMicros = s.SumNanos / s.Count / 1000
	return out
}
