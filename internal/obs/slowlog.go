package obs

import (
	"sync"
	"time"
)

// procStart anchors the process-monotonic offsets stamped on ring
// entries; only ages derived from it are ever reported.
var procStart = time.Now()

func monotonic() time.Duration { return time.Since(procStart) }

// SlowEntry is one over-threshold request with its per-stage breakdown.
type SlowEntry struct {
	Seq          uint64 `json:"seq"`
	Op           string `json:"op"`
	ReqID        uint64 `json:"req_id"`
	TotalMicros  int64  `json:"total_us"`
	DecodeMicros int64  `json:"decode_us"`
	EngineMicros int64  `json:"engine_us"`
	EncodeMicros int64  `json:"encode_us"`
	WriteMicros  int64  `json:"write_us"`
	// AgoMillis is how long before the dump the request completed;
	// filled by Entries.
	AgoMillis int64 `json:"ago_ms"`

	at time.Duration // process-monotonic completion offset
}

// SlowLog is a bounded ring of the most recent slow requests. Add is
// mutex-guarded but touches only preallocated ring memory; overflow
// evicts the oldest entry.
type SlowLog struct {
	threshold time.Duration

	mu   sync.Mutex
	ring []SlowEntry
	seq  uint64
}

// NewSlowLog builds a ring of the given capacity (≤0 means 128) and
// threshold.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity <= 0 {
		capacity = 128
	}
	return &SlowLog{ring: make([]SlowEntry, capacity), threshold: threshold}
}

// Threshold returns the slow-request cutoff.
func (l *SlowLog) Threshold() time.Duration { return l.threshold }

// Add appends one entry, evicting the oldest at capacity. Seq and the
// completion timestamp are assigned here.
func (l *SlowLog) Add(e SlowEntry) {
	at := monotonic()
	l.mu.Lock()
	e.Seq = l.seq + 1
	e.at = at
	l.ring[l.seq%uint64(len(l.ring))] = e
	l.seq++
	l.mu.Unlock()
}

// Len reports how many entries are currently retained.
func (l *SlowLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seq < uint64(len(l.ring)) {
		return int(l.seq)
	}
	return len(l.ring)
}

// Total reports how many entries were ever added (Seq of the newest). Safe
// on a nil log (returns 0).
func (l *SlowLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Entries returns the retained entries oldest-first with AgoMillis
// filled in.
func (l *SlowLog) Entries() []SlowEntry {
	now := monotonic()
	l.mu.Lock()
	defer l.mu.Unlock()
	n := uint64(len(l.ring))
	start := uint64(0)
	if l.seq > n {
		start = l.seq - n
	}
	out := make([]SlowEntry, 0, l.seq-start)
	for s := start; s < l.seq; s++ {
		e := l.ring[s%n]
		e.AgoMillis = (now - e.at).Milliseconds()
		out = append(out, e)
	}
	return out
}
