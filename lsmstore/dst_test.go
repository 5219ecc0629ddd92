package lsmstore_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dst"
)

// The deterministic-simulation battery: every run here drives the real
// store (file backend, WAL, flush/merge maintenance) through the
// internal/dst harness — seeded workload, seeded fault injection, process
// kills, crash-image reopens — and checks it against the in-memory model.
// CI runs this battery race-enabled on every push; cmd/lsmdst is the same
// harness behind a CLI for reproducing and sweeping seeds.

// dstCorpus is the committed seed corpus. Each seed derives a different
// store configuration (strategy, keyspace, read cache, admission) and fault
// schedule; together they cover all four anti-matter strategies and every
// damaging fault kind (asserted below, so corpus edits can't silently lose
// coverage).
var dstCorpus = []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}

func dstRun(t *testing.T, cfg dst.Config) *dst.Report {
	t.Helper()
	cfg.Dir = filepath.Join(t.TempDir(), "run")
	rep, err := dst.Run(cfg)
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	return rep
}

// TestDSTCorpus runs every committed seed with fault injection and
// requires a clean verdict, then asserts the corpus still covers all four
// strategies and the four damaging fault kinds.
func TestDSTCorpus(t *testing.T) {
	strategies := map[string]bool{}
	kinds := map[string]bool{}
	readCache := map[string]bool{}
	admission := map[string]bool{}
	for _, seed := range dstCorpus {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rep := dstRun(t, dst.Config{Seed: seed, Ops: 400, FaultRate: 1, Profile: dst.Seq})
			if rep.Failed {
				t.Fatalf("reproduce with: %s\nverdict: %s",
					dst.FormatRepro(dst.Config{Seed: seed, Ops: 400, FaultRate: 1, Profile: dst.Seq}), rep.Verdict)
			}
			for _, part := range strings.Fields(rep.Setup) {
				if s, ok := strings.CutPrefix(part, "strategy="); ok {
					strategies[s] = true
				}
				if s, ok := strings.CutPrefix(part, "readcache="); ok {
					readCache[s] = true
				}
				if s, ok := strings.CutPrefix(part, "admission="); ok {
					admission[s] = true
				}
			}
			for _, f := range rep.Faults {
				kinds[f.Fault.Kind] = true
			}
		})
	}
	for _, want := range []string{"eager", "validation", "mutable-bitmap", "deleted-key"} {
		if !strategies[want] {
			t.Errorf("corpus no longer covers strategy %q (got %v)", want, strategies)
		}
	}
	for _, want := range []string{dst.KindWALAppend, dst.KindTornAppend, dst.KindSyncWAL, dst.KindManifest} {
		if !kinds[want] {
			t.Errorf("corpus no longer fires fault kind %q (got %v)", want, kinds)
		}
	}
	for _, want := range []string{"on", "off"} {
		if !readCache[want] {
			t.Errorf("corpus no longer covers readcache=%s (got %v)", want, readCache)
		}
		if !admission[want] {
			t.Errorf("corpus no longer covers admission=%s (got %v)", want, admission)
		}
	}
}

// TestDSTSeedBitReproducible runs one seed five consecutive times and
// demands bit-identical results: same op trace (full event list, not just
// the hash), same fault schedule, same verdict. This is the determinism
// contract of internal/dst/doc.go, asserted.
func TestDSTSeedBitReproducible(t *testing.T) {
	cfg := dst.Config{Seed: 3, Ops: 400, FaultRate: 1, Profile: dst.Seq, RecordTrace: true}
	var first *dst.Report
	for run := 0; run < 5; run++ {
		rep := dstRun(t, cfg)
		if first == nil {
			first = rep
			if rep.Kills == 0 || len(rep.Faults) == 0 {
				t.Fatalf("seed exercises no kills/faults (kills=%d faults=%d); pick a livelier one",
					rep.Kills, len(rep.Faults))
			}
			continue
		}
		if rep.Verdict != first.Verdict || rep.Failed != first.Failed {
			t.Fatalf("run %d verdict %q != run 0 verdict %q", run, rep.Verdict, first.Verdict)
		}
		if rep.TraceHash != first.TraceHash || rep.TraceLen != first.TraceLen {
			t.Fatalf("run %d trace %d/%016x != run 0 trace %d/%016x",
				run, rep.TraceLen, rep.TraceHash, first.TraceLen, first.TraceHash)
		}
		for i := range first.Trace {
			if rep.Trace[i] != first.Trace[i] {
				t.Fatalf("run %d trace diverges at event %d: %q != %q", run, i, rep.Trace[i], first.Trace[i])
			}
		}
		if got, want := fmt.Sprint(rep.Faults), fmt.Sprint(first.Faults); got != want {
			t.Fatalf("run %d fault schedule diverged:\n got %s\nwant %s", run, got, want)
		}
	}
}

// requireCorpusCatches re-arms bug and requires that the given corpus seeds
// catch it: at least one must fail, every failure must carry the verdict
// the bug is known by, and each seed that fails must pass with the bug
// disarmed (the corpus test above already runs them clean, but the pairing
// keeps the proof self-contained).
func requireCorpusCatches(t *testing.T, bug string, seeds []int64, verdict string) {
	t.Helper()
	caught := 0
	for _, seed := range seeds {
		buggy := dstRun(t, dst.Config{Seed: seed, Ops: 400, FaultRate: 1, Profile: dst.Seq, Bug: bug})
		if !buggy.Failed {
			continue
		}
		caught++
		if !strings.Contains(buggy.Verdict, verdict) {
			t.Errorf("seed %d caught the %s bug with an unexpected verdict: %s", seed, bug, buggy.Verdict)
		}
		clean := dstRun(t, dst.Config{Seed: seed, Ops: 400, FaultRate: 1, Profile: dst.Seq})
		if clean.Failed {
			t.Errorf("seed %d fails even without the bug armed: %s", seed, clean.Verdict)
		}
	}
	if caught == 0 {
		t.Fatalf("no corpus seed catches the %s bug; the detector is dead", bug)
	}
}

// TestDSTCatchesReplayNewestOnlyBug re-arms a recovery that replays only
// the newest log segment the device holds: the writes of an older retained
// segment — the segments a reopen recovered, until the session's first flush
// cuts them, or a flush batch whose install failed — vanish from an
// in-process crash-recover, and the model sees an acknowledged write
// absent. (A recovery that skips its component-timestamp filter was tried
// first: it replays versions the components already hold, and no corpus
// seed tells the difference.)
func TestDSTCatchesReplayNewestOnlyBug(t *testing.T) {
	requireCorpusCatches(t, dst.BugReplayNewestOnly, dstCorpus[:8], "observed <absent>")
}

// TestDSTCatchesEarlyUnlinkBug re-arms the unlink-before-manifest ordering
// bug: retired component files are deleted before the manifest that drops
// their names is saved, so a manifest save that fails (or a kill landing on
// it) leaves a directory whose manifest names files that are gone, and the
// next generation does not reopen.
func TestDSTCatchesEarlyUnlinkBug(t *testing.T) {
	requireCorpusCatches(t, dst.BugEarlyUnlink, dstCorpus, "component file")
}

// TestDSTCatchesEarlyCutBug re-arms the cut-before-manifest ordering bug:
// the log segments a flush covers are dropped before its manifest is saved,
// so a failed save leaves acknowledged writes in neither a durable
// component nor the log, and the reopened store diverges from the model.
func TestDSTCatchesEarlyCutBug(t *testing.T) {
	requireCorpusCatches(t, dst.BugEarlyCut, dstCorpus, "reopen: key")
}

// TestDSTCatchesEarlyUnpinBug re-arms the early-unpin bug: a B+-tree scan
// drops the pin on its previous leaf as soon as it moves on, so a merged
// iterator emits an entry whose buffer-cache frame was already freed. The
// harness poisons every freed frame and gives each shard two frames, so
// such an entry reads as garbage: a reconciled filter scan loses records
// (seed 1 instead fails its secondary query on a corrupt payload; these
// four seeds share the scan verdict).
func TestDSTCatchesEarlyUnpinBug(t *testing.T) {
	requireCorpusCatches(t, dst.BugEarlyUnpin, []int64{0, 2, 3, 5}, "filter scan diverged from model")
}

// TestDSTConcProfileSound spot-checks the concurrency profile: background
// maintenance workers, seeded yield perturbation, optional sharding. The
// op trace is interleaving-dependent there, but verdicts must stay sound.
func TestDSTConcProfileSound(t *testing.T) {
	if testing.Short() {
		t.Skip("conc profile sweep skipped in -short")
	}
	for _, seed := range []int64{0, 4, 7, 11} {
		rep := dstRun(t, dst.Config{Seed: seed, Ops: 400, FaultRate: 1, Profile: dst.Conc})
		if rep.Failed {
			t.Fatalf("reproduce with: %s\nverdict: %s",
				dst.FormatRepro(dst.Config{Seed: seed, Ops: 400, FaultRate: 1, Profile: dst.Conc}), rep.Verdict)
		}
	}
}
