package lsm

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bloom"
	"repro/internal/metrics"
)

// probeCharge runs one ProbeBloom against f on a fresh env and returns the
// answer, the virtual time it charged and the tests and negatives it counted.
func probeCharge(f bloom.Filter, key []byte) (ok bool, charged time.Duration, tests, negatives int64) {
	env := metrics.NewEnv()
	ok = ProbeBloom(env, f, key)
	return ok, env.Clock.Now(), env.Counters.BloomTests.Load(), env.Counters.BloomNegatives.Load()
}

// TestProbeBloomCharges pins what one Bloom probe costs the cost model: a
// nil filter counts and charges nothing; a Standard filter charges the hash
// plus one cache-line miss per bit it tested (all k on a positive, i when
// probe i found a zero); V2 charges the hash, one cache-line miss and its
// seven in-block probes after the first; every negative counts once.
func TestProbeBloomCharges(t *testing.T) {
	cpu := metrics.DefaultCPUCosts()
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	const added = 100

	t.Run("nil", func(t *testing.T) {
		ok, charged, tests, negatives := probeCharge(nil, key(0))
		if !ok || charged != 0 || tests != 0 || negatives != 0 {
			t.Fatalf("nil filter: ok=%v charged=%v tests=%d negatives=%d, want true 0 0 0",
				ok, charged, tests, negatives)
		}
	})

	t.Run("standard", func(t *testing.T) {
		f := bloom.NewStandardFPR(added, 0.01)
		for i := 0; i < added; i++ {
			f.Add(key(i))
		}
		for i := 0; i < added; i++ {
			ok, charged, tests, negatives := probeCharge(f, key(i))
			want := cpu.Hash + time.Duration(f.K())*cpu.CacheLineMiss
			if !ok || charged != want || tests != 1 || negatives != 0 {
				t.Fatalf("added key %d: ok=%v charged=%v tests=%d negatives=%d, want true %v 1 0",
					i, ok, charged, tests, negatives, want)
			}
		}
		// A filter filled to its design load has about half its bits set,
		// so absent keys say no at every probe depth from the first on.
		depths := map[int]bool{}
		for i := added; i < 20*added; i++ {
			ok, charged, tests, negatives := probeCharge(f, key(i))
			if ok {
				continue // a false positive
			}
			_, probes := f.MayContain(key(i))
			want := cpu.Hash + time.Duration(probes)*cpu.CacheLineMiss
			if charged != want || tests != 1 || negatives != 1 {
				t.Fatalf("absent key %d, no at probe %d: charged=%v tests=%d negatives=%d, want %v 1 1",
					i, probes, charged, tests, negatives, want)
			}
			depths[probes] = true
		}
		if !depths[1] || len(depths) < 3 {
			t.Fatalf("negatives at probe depths %v: want the first probe and at least two more", depths)
		}
	})

	t.Run("v2", func(t *testing.T) {
		f := bloom.NewV2FPR(added, 0.01)
		for i := 0; i < added; i++ {
			f.Add(key(i))
		}
		want := cpu.Hash + cpu.CacheLineMiss + 7*cpu.ProbeInBlock
		var sawNegative bool
		for i := 0; i < 20*added; i++ {
			ok, charged, tests, negatives := probeCharge(f, key(i))
			wantNeg := int64(0)
			if !ok {
				wantNeg = 1
				sawNegative = true
			}
			if charged != want || tests != 1 || negatives != wantNeg {
				t.Fatalf("key %d (ok=%v): charged=%v tests=%d negatives=%d, want %v 1 %d",
					i, ok, charged, tests, negatives, want, wantNeg)
			}
		}
		if !sawNegative {
			t.Fatal("no absent key said no")
		}
	})
}
