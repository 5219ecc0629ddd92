package dst

import (
	"runtime"
	"sync/atomic"
)

// Sched is the yield-point hook installed as lsmstore.Options.Yield. The
// engine calls it at its instrumented scheduling points (the WAL
// group-commit path, the maintenance pool); the scheduler either records
// them (sequential profile: the yield stream is part of the determinism
// contract) or perturbs the interleaving around them (concurrent profile:
// seeded Gosched bursts shake out orderings the runtime would rarely pick on
// its own).
type Sched struct {
	seed    uint64
	perturb bool
	trace   *Trace // non-nil only in the sequential profile
	seq     atomic.Uint64
}

// NewSched builds a scheduler. trace non-nil records every yield point
// (only sound when the engine runs single-threaded); perturb enables
// seeded interleaving perturbation.
func NewSched(seed uint64, perturb bool, trace *Trace) *Sched {
	return &Sched{seed: seed, perturb: perturb, trace: trace}
}

// Yield is the engine-facing hook.
func (s *Sched) Yield(point string) {
	n := s.seq.Add(1)
	if s.trace != nil {
		s.trace.Add("yield " + point)
	}
	if !s.perturb {
		return
	}
	r := mix64(s.seed ^ n*0x9e3779b97f4a7c15)
	if r%4 == 0 {
		// Hand the processor away once or a few times: lets a racing
		// flush, merge, or commit leader slot in right here.
		for i := uint64(0); i <= (r>>8)%3; i++ {
			runtime.Gosched()
		}
	}
	// Otherwise proceed untouched, so most yields stay cheap.
}
