package kv

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPayloadRoundTrip(t *testing.T) {
	cases := []Entry{
		{Key: []byte("k"), Value: []byte("v"), TS: 42, Anti: false},
		{Key: []byte("k2"), Value: nil, TS: -7, Anti: true},
		{Key: []byte("k3"), Value: []byte{}, TS: 0, Anti: false},
		{Key: []byte("k4"), Value: bytes.Repeat([]byte{0xab}, 1000), TS: 1 << 60, Anti: true},
	}
	for _, e := range cases {
		buf := AppendPayload(nil, e)
		got, err := DecodePayload(buf, e.Key)
		if err != nil {
			t.Fatalf("decode %v: %v", e, err)
		}
		if !bytes.Equal(got.Value, e.Value) || got.TS != e.TS || got.Anti != e.Anti {
			t.Errorf("round trip: got %v want %v", got, e)
		}
	}
}

func TestPayloadRoundTripQuick(t *testing.T) {
	f := func(value []byte, ts int64, anti bool) bool {
		e := Entry{Key: []byte("k"), Value: value, TS: ts, Anti: anti}
		got, err := DecodePayload(AppendPayload(nil, e), e.Key)
		if err != nil {
			return false
		}
		return bytes.Equal(got.Value, value) && got.TS == ts && got.Anti == anti
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodePayloadCorrupt(t *testing.T) {
	if _, err := DecodePayload(nil, nil); err == nil {
		t.Error("empty payload should fail")
	}
	e := Entry{Key: []byte("k"), Value: []byte("hello"), TS: 5}
	buf := AppendPayload(nil, e)
	if _, err := DecodePayload(buf[:len(buf)-2], e.Key); err == nil {
		t.Error("truncated payload should fail")
	}
}

func TestEncodeUint64Order(t *testing.T) {
	f := func(a, b uint64) bool {
		ka, kb := EncodeUint64(a), EncodeUint64(b)
		switch {
		case a < b:
			return bytes.Compare(ka, kb) < 0
		case a > b:
			return bytes.Compare(ka, kb) > 0
		default:
			return bytes.Equal(ka, kb)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComposeSplitRoundTrip(t *testing.T) {
	f := func(secondary, primary []byte) bool {
		s, p, err := SplitKey(ComposeKey(secondary, primary))
		if err != nil {
			return false
		}
		return bytes.Equal(s, secondary) && bytes.Equal(p, primary)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComposeKeyOrder(t *testing.T) {
	// Composite ordering must equal (secondary, primary) lexicographic
	// ordering, including tricky zero bytes and prefix relationships.
	f := func(s1, p1, s2, p2 []byte) bool {
		c1, c2 := ComposeKey(s1, p1), ComposeKey(s2, p2)
		want := bytes.Compare(s1, s2)
		if want == 0 {
			want = bytes.Compare(p1, p2)
		}
		return sign(bytes.Compare(c1, c2)) == sign(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestSecondaryScanBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randKey := func(n int) []byte {
		b := make([]byte, rng.Intn(n)+1)
		for i := range b {
			b[i] = byte(rng.Intn(4)) // dense alphabet exercises 0x00 paths
		}
		return b
	}
	var buf []byte // reused across trials, as a query's scratch reuses it
	for trial := 0; trial < 500; trial++ {
		lo, hi := randKey(4), randKey(4)
		if bytes.Compare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		var cLo, cHi []byte
		buf, cLo, cHi = AppendSecondaryScanBounds(buf[:0], lo, hi)
		s, p := randKey(4), randKey(4)
		comp := ComposeKey(s, p)
		inRange := bytes.Compare(s, lo) >= 0 && bytes.Compare(s, hi) <= 0
		inBounds := bytes.Compare(comp, cLo) >= 0 && bytes.Compare(comp, cHi) < 0
		if inRange != inBounds {
			t.Fatalf("bounds mismatch: s=%x lo=%x hi=%x inRange=%v inBounds=%v",
				s, lo, hi, inRange, inBounds)
		}
	}
}

func TestEntryClone(t *testing.T) {
	e := Entry{Key: []byte("key"), Value: []byte("value"), TS: 9, Anti: true}
	c := e.Clone()
	c.Key[0] = 'X'
	c.Value[0] = 'Y'
	if e.Key[0] != 'k' || e.Value[0] != 'v' {
		t.Error("Clone must deep-copy key and value")
	}
}

func TestEntrySize(t *testing.T) {
	e := Entry{Key: make([]byte, 10), Value: make([]byte, 20)}
	if e.Size() != 46 {
		t.Errorf("Size = %d, want 46", e.Size())
	}
}

// TestArenaResetKeepsOneChunk: an arena reset between answers of one size
// stops allocating once its kept chunk holds a whole answer, and a chunk
// over maxChunk is not kept.
func TestArenaResetKeepsOneChunk(t *testing.T) {
	var a Arena
	rec := bytes.Repeat([]byte("r"), 100)
	answer := func() {
		a.Reset()
		for range 200 { // 20 000 bytes: 4, 8 and 16 KiB chunks, then one 32 KiB
			a.Copy(rec)
		}
	}
	answer()
	answer()
	if n := testing.AllocsPerRun(100, answer); n != 0 {
		t.Errorf("%v allocations per reset answer, want 0", n)
	}
	got := a.Copy([]byte("abc"))
	if string(got) != "abc" {
		t.Fatalf("Copy after Reset = %q", got)
	}
	a.Copy(make([]byte, maxChunk+1))
	a.Reset()
	if c := cap(a.chunk); c != 0 {
		t.Errorf("Reset kept a %d-byte chunk, over the %d-byte cap", c, maxChunk)
	}
}
