package obs

import (
	"sync"
	"time"
)

// JournalKind distinguishes maintenance event types.
type JournalKind uint8

const (
	JFlush JournalKind = iota
	JMerge
)

func (k JournalKind) String() string {
	if k == JFlush {
		return "flush"
	}
	return "merge"
}

// JournalEvent is one completed flush or merge.
type JournalEvent struct {
	Seq              uint64 `json:"seq"`
	Kind             string `json:"kind"`
	Shard            int    `json:"shard"`
	Tree             string `json:"tree,omitempty"`
	DurationMicros   int64  `json:"duration_us"`
	Bytes            int64  `json:"bytes"`
	InputComponents  int    `json:"input_components"`
	OutputComponents int    `json:"output_components"`
	Err              string `json:"err,omitempty"`
	// AgoMillis is how long before the dump the event ended; filled by
	// Events.
	AgoMillis int64 `json:"ago_ms"`

	end time.Duration
}

// JournalSummary aggregates the journal's lifetime totals plus the
// in-progress gauges. The prom tags are the /metrics names (Fields).
type JournalSummary struct {
	Flushes               int64 `json:"flushes" prom:"lsm_maintenance_flushes_total,Completed flush operations."`
	FlushErrors           int64 `json:"flush_errors" prom:"lsm_maintenance_flush_errors_total,Flush operations that failed."`
	FlushNanos            int64 `json:"flush_ns" prom:"lsm_maintenance_flush_seconds_total,Total time spent flushing."`
	FlushBytes            int64 `json:"flush_bytes" prom:"lsm_maintenance_flush_bytes_total,Bytes written by flushes."`
	FlushOutputComponents int64 `json:"flush_output_components" prom:"lsm_maintenance_flush_output_components_total,Components produced by flushes."`
	Merges                int64 `json:"merges" prom:"lsm_maintenance_merges_total,Completed merge operations."`
	MergeErrors           int64 `json:"merge_errors" prom:"lsm_maintenance_merge_errors_total,Merge operations that failed."`
	MergeNanos            int64 `json:"merge_ns" prom:"lsm_maintenance_merge_seconds_total,Total time spent merging."`
	MergeBytes            int64 `json:"merge_bytes" prom:"lsm_maintenance_merge_bytes_total,Bytes written by merges."`
	MergeInputComponents  int64 `json:"merge_input_components" prom:"lsm_maintenance_merge_input_components_total,Components consumed by merges."`
	ActiveFlushes         int64 `json:"active_flushes" prom:"lsm_maintenance_active_flushes,Flush operations in progress."`
	ActiveMerges          int64 `json:"active_merges" prom:"lsm_maintenance_active_merges,Merge operations in progress."`
}

// Journal is a bounded ring of maintenance events plus running totals.
// Events are recorded with Begin/End pairs; a nil *Journal is a valid
// disabled journal (Begin returns a nil op whose End is a no-op), so
// callers never branch on enablement.
type Journal struct {
	mu      sync.Mutex
	ring    []JournalEvent
	seq     uint64
	totals  JournalSummary
	actives [2]int64 // in-flight ops by kind
}

// NewJournal builds a ring of the given capacity (≤0 means 256).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = 256
	}
	return &Journal{ring: make([]JournalEvent, capacity)}
}

// JournalOp is one maintenance operation in flight, created by Begin and
// finished by End.
type JournalOp struct {
	j     *Journal
	kind  JournalKind
	shard int
	tree  string
	start time.Duration
}

// Begin opens an event. Safe on a nil journal (returns nil).
func (j *Journal) Begin(kind JournalKind, shard int, tree string) *JournalOp {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	j.actives[kind]++
	j.mu.Unlock()
	return &JournalOp{j: j, kind: kind, shard: shard, tree: tree, start: monotonic()}
}

// End closes the event with its outcome and appends it to the ring.
// Safe on a nil op.
func (op *JournalOp) End(bytes int64, inputComponents, outputComponents int, err error) {
	if op == nil {
		return
	}
	end := monotonic()
	ev := JournalEvent{
		Kind:             op.kind.String(),
		Shard:            op.shard,
		Tree:             op.tree,
		DurationMicros:   (end - op.start).Microseconds(),
		Bytes:            bytes,
		InputComponents:  inputComponents,
		OutputComponents: outputComponents,
		end:              end,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	j := op.j
	j.mu.Lock()
	j.actives[op.kind]--
	ev.Seq = j.seq + 1
	j.ring[j.seq%uint64(len(j.ring))] = ev
	j.seq++
	durNs := int64(end - op.start)
	switch op.kind {
	case JFlush:
		j.totals.Flushes++
		j.totals.FlushNanos += durNs
		j.totals.FlushBytes += bytes
		j.totals.FlushOutputComponents += int64(outputComponents)
		if err != nil {
			j.totals.FlushErrors++
		}
	case JMerge:
		j.totals.Merges++
		j.totals.MergeNanos += durNs
		j.totals.MergeBytes += bytes
		j.totals.MergeInputComponents += int64(inputComponents)
		if err != nil {
			j.totals.MergeErrors++
		}
	}
	j.mu.Unlock()
}

// Summary returns the lifetime totals and current gauges. Safe on a nil
// journal (returns zeros).
func (j *Journal) Summary() JournalSummary {
	if j == nil {
		return JournalSummary{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.totals
	s.ActiveFlushes = j.actives[JFlush]
	s.ActiveMerges = j.actives[JMerge]
	return s
}

// Events returns the retained events oldest-first with AgoMillis filled
// in. Safe on a nil journal (returns nil).
func (j *Journal) Events() []JournalEvent {
	if j == nil {
		return nil
	}
	now := monotonic()
	j.mu.Lock()
	defer j.mu.Unlock()
	n := uint64(len(j.ring))
	start := uint64(0)
	if j.seq > n {
		start = j.seq - n
	}
	out := make([]JournalEvent, 0, j.seq-start)
	for s := start; s < j.seq; s++ {
		ev := j.ring[s%n]
		ev.AgoMillis = (now - ev.end).Milliseconds()
		out = append(out, ev)
	}
	return out
}

// ShardJournal binds a journal to one shard so core code records events
// without knowing its own position in the sharding layout. The zero
// value is a disabled journal.
type ShardJournal struct {
	J     *Journal
	Shard int
}

// Begin opens an event against the bound shard; nil-safe.
func (s ShardJournal) Begin(kind JournalKind, tree string) *JournalOp {
	return s.J.Begin(kind, s.Shard, tree)
}
