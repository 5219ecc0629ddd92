package bloom

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func keysFor(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, rng.Uint64())
		keys[i] = k
	}
	return keys
}

func TestStandardNoFalseNegatives(t *testing.T) {
	keys := keysFor(10000, 1)
	f := NewStandardFPR(len(keys), 0.01)
	for _, k := range keys {
		f.Add(k)
	}
	for i, k := range keys {
		if ok, _ := f.MayContain(k); !ok {
			t.Fatalf("false negative for key %d", i)
		}
	}
}

func measureFPR(t *testing.T, f Filter, absent [][]byte) float64 {
	t.Helper()
	fp := 0
	for _, k := range absent {
		if ok, _ := f.MayContain(k); ok {
			fp++
		}
	}
	return float64(fp) / float64(len(absent))
}

func TestStandardFalsePositiveRate(t *testing.T) {
	keys := keysFor(50000, 3)
	f := NewStandardFPR(len(keys), 0.01)
	for _, k := range keys {
		f.Add(k)
	}
	fpr := measureFPR(t, f, keysFor(50000, 99))
	if fpr > 0.02 {
		t.Errorf("standard FPR %.4f exceeds 2%% (target 1%%)", fpr)
	}
}

func TestStandardCacheLinesBounded(t *testing.T) {
	keys := keysFor(1000, 6)
	f := NewStandardFPR(len(keys), 0.01)
	for _, k := range keys {
		f.Add(k)
	}
	for _, k := range keysFor(2000, 78) {
		ok, lines := f.MayContain(k)
		if lines < 1 || lines > f.K() {
			t.Fatalf("standard probe lines=%d outside [1,%d]", lines, f.K())
		}
		if ok && lines != f.K() {
			t.Fatalf("positive test must probe all %d lines, got %d", f.K(), lines)
		}
	}
}

func TestNoFalseNegativesQuick(t *testing.T) {
	f := func(raw [][]byte) bool {
		if len(raw) == 0 {
			return true
		}
		std := NewStandardFPR(len(raw), 0.01)
		v2 := NewV2FPR(len(raw), 0.01)
		for _, k := range raw {
			std.Add(k)
			v2.Add(k)
		}
		for _, k := range raw {
			if ok, _ := std.MayContain(k); !ok {
				return false
			}
			if ok, _ := v2.MayContain(k); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBitsPerKeyFor(t *testing.T) {
	got := BitsPerKeyFor(0.01)
	if got < 9.5 || got > 9.6 {
		t.Errorf("BitsPerKeyFor(0.01) = %.2f, want ~9.59", got)
	}
	if BitsPerKeyFor(0) != 10 || BitsPerKeyFor(1) != 10 {
		t.Error("out-of-range FPR should fall back to 10 bits/key")
	}
}

func TestTinyFilters(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		std := NewStandardFPR(n, 0.01)
		k := []byte("only")
		std.Add(k)
		if ok, _ := std.MayContain(k); !ok {
			t.Errorf("n=%d standard lost its key", n)
		}
	}
}

func BenchmarkStandardMayContain(b *testing.B) {
	keys := keysFor(100000, 7)
	f := NewStandardFPR(len(keys), 0.01)
	for _, k := range keys {
		f.Add(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContain(keys[i%len(keys)])
	}
}

func ExampleStandard() {
	f := NewStandardFPR(100, 0.01)
	f.Add([]byte("tweet-1"))
	ok, _ := f.MayContain([]byte("tweet-1"))
	fmt.Println(ok)
	// Output: true
}
