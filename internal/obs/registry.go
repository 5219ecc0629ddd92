package obs

import "time"

// Op classifies a request for the per-op-class latency histograms.
type Op uint8

const (
	OpGet Op = iota
	OpUpsert
	OpInsert
	OpDelete
	OpApplyBatch
	OpSecondaryQuery
	OpFilterScan
	// OpOther covers the control-plane ops (PING, STATS, FLUSH) whose
	// latency is not interesting enough for a class of its own.
	OpOther
	NumOps
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpUpsert:
		return "upsert"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpApplyBatch:
		return "apply_batch"
	case OpSecondaryQuery:
		return "secondary_query"
	case OpFilterScan:
		return "filter_scan"
	default:
		return "other"
	}
}

// Stage names one segment of a request's server-side lifetime.
type Stage uint8

const (
	// StageDecode is frame decoding, after the frame's bytes arrived.
	StageDecode Stage = iota
	// StageCoalesce is retired, always 0; kept for bench/trace.go until
	// ROADMAP 1(e).
	StageCoalesce
	// StageEngine is the engine call (Get/ApplyBatch/query/scan).
	StageEngine
	// StageEncode is response frame encoding.
	StageEncode
	// StageWrite is the wait from response enqueue until its frame has
	// been written to the socket buffer.
	StageWrite
	NumStages
)

func (s Stage) String() string {
	switch s {
	case StageDecode:
		return "decode"
	case StageCoalesce:
		return "coalesce_wait"
	case StageEngine:
		return "engine"
	case StageEncode:
		return "encode"
	case StageWrite:
		return "write"
	default:
		return "unknown"
	}
}

// Registry holds one latency histogram per op class (total server-side
// latency) and one per request stage. Record paths are lock-free and
// allocation-free; snapshot paths allocate. A Registry is large
// (~200KB of bucket counters) — share one per server.
type Registry struct {
	ops    [NumOps]Hist
	stages [NumStages]Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// RecordOp records one request's total server-side latency.
func (r *Registry) RecordOp(op Op, d time.Duration) {
	if op >= NumOps {
		op = OpOther
	}
	r.ops[op].Record(d)
}

// RecordStage records time spent in one request stage.
func (r *Registry) RecordStage(st Stage, d time.Duration) {
	if st >= NumStages {
		return
	}
	r.stages[st].Record(d)
}

// OpSnapshots captures every op-class histogram with at least one
// observation, keyed by class name.
func (r *Registry) OpSnapshots() map[string]HistSnapshot {
	out := make(map[string]HistSnapshot, NumOps)
	for op := Op(0); op < NumOps; op++ {
		if s := r.ops[op].Snapshot(); s.Count > 0 {
			out[op.String()] = s
		}
	}
	return out
}

// StageSnapshots captures every stage histogram with at least one
// observation, keyed by stage name.
func (r *Registry) StageSnapshots() map[string]HistSnapshot {
	out := make(map[string]HistSnapshot, NumStages)
	for st := Stage(0); st < NumStages; st++ {
		if s := r.stages[st].Snapshot(); s.Count > 0 {
			out[st.String()] = s
		}
	}
	return out
}

// Summaries condenses a snapshot map into percentile digests.
func Summaries(m map[string]HistSnapshot) map[string]Summary {
	out := make(map[string]Summary, len(m))
	for k, s := range m {
		out[k] = s.Summary()
	}
	return out
}
