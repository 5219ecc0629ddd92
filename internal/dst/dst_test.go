package dst

import (
	"errors"
	"testing"
)

// Unit tests for the harness's own building blocks. The end-to-end
// batteries (corpus, determinism, bug catch, scripted fault paths) live in
// lsmstore, where the real store is in scope; everything here must hold
// for those batteries to mean anything.

// TestSeededInjectorStateless: a decision is a pure function of
// (shard, op, ord) — the minimizer's stability contract.
func TestSeededInjectorStateless(t *testing.T) {
	inj := SeededInjector{Seed: 0xABCDEF, Rate: 25} // high rate: plenty of firings
	type key struct {
		shard int
		op    string
		ord   int64
	}
	ops := []string{OpAppendWAL, OpSyncWAL, OpSaveManifest, OpAppendPage}
	first := map[key]string{}
	fired := 0
	for shard := 0; shard < 2; shard++ {
		for _, op := range ops {
			for ord := int64(0); ord < 200; ord++ {
				f, ok := inj.Decide(shard, op, ord)
				if ok {
					fired++
				}
				first[key{shard, op, ord}] = f.String()
			}
		}
	}
	if fired == 0 {
		t.Fatal("injector never fires even at rate 25")
	}
	// Replay in reverse order: every decision must be identical.
	for shard := 1; shard >= 0; shard-- {
		for i := len(ops) - 1; i >= 0; i-- {
			for ord := int64(199); ord >= 0; ord-- {
				f, _ := inj.Decide(shard, ops[i], ord)
				if want := first[key{shard, ops[i], ord}]; f.String() != want {
					t.Fatalf("decision for (%d,%s,%d) changed: %s != %s", shard, ops[i], ord, f, want)
				}
			}
		}
	}
}

// TestScriptWildcardOrd: Ord -1 matches every occurrence of the op.
func TestScriptWildcardOrd(t *testing.T) {
	s := Script{
		{Shard: 0, Op: OpSaveManifest, Ord: -1, Fault: Fault{Kind: KindManifest}},
		{Shard: 1, Op: OpAppendWAL, Ord: 3, Fault: Fault{Kind: KindTornAppend}},
	}
	for ord := int64(0); ord < 5; ord++ {
		if f, ok := s.Decide(0, OpSaveManifest, ord); !ok || f.Kind != KindManifest {
			t.Fatalf("wildcard missed ord %d", ord)
		}
	}
	if _, ok := s.Decide(1, OpAppendWAL, 2); ok {
		t.Fatal("pinned ord fired on the wrong occurrence")
	}
	if f, ok := s.Decide(1, OpAppendWAL, 3); !ok || f.Kind != KindTornAppend {
		t.Fatal("pinned ord missed its occurrence")
	}
	if _, ok := s.Decide(2, OpSaveManifest, 0); ok {
		t.Fatal("fault fired on the wrong shard")
	}
}

// TestModelRegimes walks one key through the three check regimes: exact
// in-session visibility, soft-crash membership (certain ∪ in-mem maybes),
// and hard-crash resolution (certain ∪ all maybes, folding the observation
// back in).
func TestModelRegimes(t *testing.T) {
	m := NewModel()
	const id = 7
	v1, v2, v3 := []byte("v1"), []byte("v2"), []byte("v3")
	st := func(val []byte) valState { return valState{present: true, val: string(val)} }
	absent := valState{}

	m.AckWrite(id, v1)
	if got := m.Visible(id); !got.equal(st(v1)) {
		t.Fatalf("visible after ack: %s", got)
	}
	if !m.AllCertain() {
		t.Fatal("acked write left the model uncertain")
	}

	// A failed commit that never reached memory: invisible live and after
	// a soft crash, but a kill may persist it from the on-disk WAL.
	m.FailedWrite(id, v2, false)
	if got := m.Visible(id); !got.equal(st(v1)) {
		t.Fatalf("wal-only maybe changed live visibility: %s", got)
	}
	if !m.CheckSoft(id, st(v1)) || m.CheckSoft(id, st(v2)) || m.CheckSoft(id, absent) {
		t.Fatal("soft membership wrong for a wal-only maybe")
	}
	if m.AllCertain() {
		t.Fatal("maybe not counted as uncertainty")
	}

	// A failed batched commit that stayed applied in memory: visible live
	// and allowed (not required) after a soft crash.
	m.FailedWrite(id, v3, true)
	if got := m.Visible(id); !got.equal(st(v3)) {
		t.Fatalf("in-mem maybe not visible live: %s", got)
	}
	if !m.CheckSoft(id, st(v3)) || !m.CheckSoft(id, st(v1)) || m.CheckSoft(id, st(v2)) {
		t.Fatal("soft membership wrong with an in-mem maybe")
	}

	// Hard crash: any maybe (or the certain state) may be the survivor;
	// what is observed becomes certain.
	if m.ResolveHard(id, absent) {
		t.Fatal("hard resolution accepted a state no write produced")
	}
	if !m.ResolveHard(id, st(v2)) {
		t.Fatal("hard resolution rejected the wal-only maybe")
	}
	if !m.AllCertain() || !m.Certain(id).equal(st(v2)) {
		t.Fatalf("observation not folded back: %s", m.Describe(id))
	}

	// Deletes mirror writes.
	m.FailedDelete(id, true)
	if got := m.Visible(id); got.present {
		t.Fatalf("in-mem failed delete still visible: %s", got)
	}
	if !m.CheckSoft(id, absent) || !m.CheckSoft(id, st(v2)) {
		t.Fatal("soft membership wrong after an in-mem failed delete")
	}
	if !m.ResolveHard(id, absent) || m.Certain(id).present {
		t.Fatal("hard resolution of the delete failed")
	}
}

// TestModelUntouchedKeys: reads of never-written keys must be absent in
// every regime.
func TestModelUntouchedKeys(t *testing.T) {
	m := NewModel()
	if m.Visible(1).present || !m.CheckSoft(1, valState{}) || m.CheckSoft(1, valState{present: true, val: "x"}) {
		t.Fatal("untouched key has wrong membership")
	}
	if len(m.Keys()) != 0 {
		t.Fatal("reads materialized keys")
	}
}

// TestTraceHash: the hash is a pure function of the event sequence, and
// recording (keep=true) does not change it.
func TestTraceHash(t *testing.T) {
	a, b, c := NewTrace(false), NewTrace(true), NewTrace(false)
	for _, ev := range []string{"open g0000", "op upsert 3", "crash -> g0001"} {
		a.Add(ev)
		b.Add(ev)
	}
	c.Add("open g0000")
	c.Add("op upsert 4")
	if a.Hash() != b.Hash() || a.Len() != b.Len() {
		t.Fatal("keep=true changed the trace hash")
	}
	if a.Hash() == c.Hash() {
		t.Fatal("different event sequences hash equal")
	}
	if got := b.Events(); len(got) != 3 || got[2] != "crash -> g0001" {
		t.Fatalf("recorded events wrong: %v", got)
	}
	if a.Events() != nil {
		t.Fatal("keep=false retained events")
	}
}

// TestWalkFaults: every fault kind in a joined/wrapped error tree is
// visited — errors.As alone stops at the first injectedError, which is
// exactly the bug this helper exists to avoid.
func TestWalkFaults(t *testing.T) {
	err := errors.Join(
		&injectedError{KindManifest},
		errorsWrap(errorsWrap(&injectedError{KindSyncWAL})),
		errorsWrap(ErrKilled),
	)
	seen := map[string]int{}
	walkFaults(err, func(kind string) { seen[kind]++ })
	if seen[KindManifest] != 1 || seen[KindSyncWAL] != 1 || seen["killed"] != 1 {
		t.Fatalf("walk missed faults: %v", seen)
	}
	walkFaults(nil, func(string) { t.Fatal("walk visited a nil error") })
}

func errorsWrap(err error) error { return &wrapped{err} }

type wrapped struct{ inner error }

func (w *wrapped) Error() string { return "wrap: " + w.inner.Error() }
func (w *wrapped) Unwrap() error { return w.inner }
