package metrics

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(5 * time.Millisecond)
	c.Advance(3 * time.Millisecond)
	if c.Now() != 8*time.Millisecond {
		t.Fatalf("Now = %v", c.Now())
	}
	c.Advance(-time.Second) // ignored
	if c.Now() != 8*time.Millisecond {
		t.Fatalf("negative advance changed clock: %v", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestClockConcurrent(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c.Now() != 8*time.Millisecond {
		t.Fatalf("concurrent advances lost: %v", c.Now())
	}
}

func TestCountersSnapshotSub(t *testing.T) {
	var c Counters
	c.RandomReads.Add(5)
	c.CacheHits.Add(2)
	before := c.Snapshot()
	c.RandomReads.Add(3)
	c.BloomTests.Add(7)
	delta := c.Snapshot().Sub(before)
	if delta.RandomReads != 3 || delta.BloomTests != 7 || delta.CacheHits != 0 {
		t.Fatalf("delta = %+v", delta)
	}
	c.Reset()
	if s := c.Snapshot(); s.RandomReads != 0 || s.BloomTests != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestEnvCharges(t *testing.T) {
	env := NewEnv()
	env.ChargeCompare(10)
	if env.Counters.KeyComparisons.Load() != 10 {
		t.Fatal("comparisons not counted")
	}
	want := 10 * env.CPU.KeyCompare
	if env.Clock.Now() != want {
		t.Fatalf("clock = %v, want %v", env.Clock.Now(), want)
	}
	before := env.Clock.Now()
	env.ChargeSort(100)
	if env.Clock.Now()-before != 100*env.CPU.SortPerEntry {
		t.Fatal("sort charge wrong")
	}
	env.ChargeMemtable()
	env.ChargeLogAppend()
	env.ChargeDecode(3)
}

func TestNopEnvChargesNothing(t *testing.T) {
	env := NopEnv()
	env.ChargeCompare(1000)
	env.ChargeSort(1000)
	if env.Clock.Now() != 0 {
		t.Fatalf("NopEnv advanced the clock: %v", env.Clock.Now())
	}
	// but counting still works
	if env.Counters.KeyComparisons.Load() != 1000 {
		t.Fatal("NopEnv must still count")
	}
}

func TestDefaultCostsSane(t *testing.T) {
	c := DefaultCPUCosts()
	if c.KeyCompare <= 0 || c.CacheLineMiss <= c.ProbeInBlock {
		t.Fatal("cost calibration out of order")
	}
	if c.CacheHit <= c.CacheLineMiss {
		t.Fatal("a buffer-cache page access must cost more than one cache-line miss")
	}
}

// TestCounterSetsMirror holds each counter set and its snapshot twin in
// step — same names, same order, every twin tagged with a unique /metrics
// name and a help — and runs every field through Snapshot, Sub, Add and
// Reset, so a new count cannot escape the walk.
func TestCounterSetsMirror(t *testing.T) {
	checkMirror[Counters, Snapshot](t)
	checkMirror[ServerCounters, ServerSnapshot](t)
	if t.Failed() {
		return // the walk would index past the shorter twin
	}

	var c Counters
	a, b := checkWalk(t, &c, (*Counters).Snapshot, Snapshot.Sub)
	if got := a.Sub(b).Add(b); got != a {
		t.Errorf("Sub/Add round trip = %+v, want %+v", got, a)
	}
	c.Reset()
	if s := c.Snapshot(); s != (Snapshot{}) {
		t.Errorf("after Reset: %+v", s)
	}
	var sc ServerCounters
	checkWalk(t, &sc, (*ServerCounters).Snapshot, ServerSnapshot.Sub)
}

// checkMirror: field i of the counter set C is an atomic.Int64 whose twin,
// field i of the snapshot S, is an int64 of the same name with a prom tag.
func checkMirror[C, S any](t *testing.T) {
	t.Helper()
	c, s := reflect.TypeFor[C](), reflect.TypeFor[S]()
	if c.NumField() != s.NumField() {
		t.Errorf("%v has %d fields, %v has %d", c, c.NumField(), s, s.NumField())
		return
	}
	names := map[string]bool{}
	for i := range c.NumField() {
		cf, sf := c.Field(i), s.Field(i)
		if cf.Type != reflect.TypeFor[atomic.Int64]() || sf.Type.Kind() != reflect.Int64 || cf.Name != sf.Name {
			t.Errorf("field %d: %v.%s (%v) and %v.%s (%v) are not twins", i, c, cf.Name, cf.Type, s, sf.Name, sf.Type)
		}
		name, help, _ := strings.Cut(sf.Tag.Get("prom"), ",")
		if name == "" || help == "" {
			t.Errorf("%v.%s: prom tag %q needs a name and a help", s, sf.Name, sf.Tag.Get("prom"))
		}
		if names[name] {
			t.Errorf("%v.%s: /metrics name %s is already taken", s, sf.Name, name)
		}
		names[name] = true
	}
}

// checkWalk sets field i of the counter set *c to 10(i+1) and checks that
// its snapshot a reads it there, and that a minus b, whose field i is i+1,
// reads 9(i+1).
func checkWalk[C, S any](t *testing.T, c *C, snapshot func(*C) S, sub func(S, S) S) (a, b S) {
	t.Helper()
	cv, bv := reflect.ValueOf(c).Elem(), reflect.ValueOf(&b).Elem()
	for i := range cv.NumField() {
		cv.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(10 * (i + 1)))
		bv.Field(i).SetInt(int64(i + 1))
	}
	a = snapshot(c)
	av, dv := reflect.ValueOf(a), reflect.ValueOf(sub(a, b))
	for i := range av.NumField() {
		name := av.Type().Field(i).Name
		if got := av.Field(i).Int(); got != int64(10*(i+1)) {
			t.Errorf("%T.%s = %d, want %d", a, name, got, 10*(i+1))
		}
		if got := dv.Field(i).Int(); got != int64(9*(i+1)) {
			t.Errorf("%T.Sub: %s = %d, want %d", a, name, got, 9*(i+1))
		}
	}
	return a, b
}

func TestServerCountersSnapshot(t *testing.T) {
	var c ServerCounters
	c.Requests.Add(4)
	c.Connections.Add(2)
	s := c.Snapshot()
	if s.Requests != 4 || s.Connections != 2 || s.Errors != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
}
