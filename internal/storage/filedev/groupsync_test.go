package filedev

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
)

// gatedSync is a controllable stand-in for Device.SyncWAL: each call
// reports itself on entered and blocks until released once.
type gatedSync struct {
	mu      sync.Mutex
	calls   int
	entered chan struct{}
	gate    chan struct{}
	errs    []error // per-call results; nil beyond the list
}

func (s *gatedSync) SyncWAL() error {
	s.mu.Lock()
	n := s.calls
	s.calls++
	s.mu.Unlock()
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	if s.gate != nil {
		<-s.gate
	}
	if n < len(s.errs) {
		return s.errs[n]
	}
	return nil
}

func (s *gatedSync) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// joined reports how many commits the open group carries (0 when no group
// is open): a test that needs followers in one group waits until they are.
func (g *GroupSyncer) joined() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cur == nil {
		return 0
	}
	return g.cur.commits
}

// waitJoined spins until the open group carries n commits.
func waitJoined(t *testing.T, g *GroupSyncer, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.joined() != n {
		if time.Now().After(deadline) {
			t.Fatalf("open group carries %d commits, want %d", g.joined(), n)
		}
		runtime.Gosched()
	}
}

// TestGroupSyncerLoneCommitterNeverWaits is the stranded-writer guarantee,
// by construction: a single committer finds no fsync in flight and becomes
// durable at once, with no follower to wait for.
func TestGroupSyncerLoneCommitterNeverWaits(t *testing.T) {
	s := &gatedSync{}
	g := NewGroupSyncer(s, nil)
	start := time.Now()
	if err := g.Wait(1); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("lone committer waited %s with no followers coming", elapsed)
	}
	if s.count() != 1 {
		t.Fatalf("sync calls = %d, want 1", s.count())
	}
}

// TestGroupSyncerAccumulatesDuringInFlightSync: while one group's fsync is
// in flight, later committers pile into the NEXT group and share its
// single fsync — the pipelining that makes the fsync rate independent of
// the commit rate.
func TestGroupSyncerAccumulatesDuringInFlightSync(t *testing.T) {
	s := &gatedSync{entered: make(chan struct{}), gate: make(chan struct{})}
	counters := &metrics.Counters{}
	g := NewGroupSyncer(s, counters)

	first := make(chan error, 1)
	go func() { first <- g.Wait(1) }()
	<-s.entered // group 1's fsync is now in flight

	const followers = 3
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Wait(1); err != nil {
				t.Error(err)
			}
		}()
	}
	// Group 2's leader holds its group open only while group 1's fsync is
	// in flight, so every follower must have joined before that fsync ends.
	waitJoined(t, g, followers)
	s.gate <- struct{}{}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	<-s.entered
	s.gate <- struct{}{}
	wg.Wait()
	if s.count() != 2 {
		t.Fatalf("sync calls = %d, want 2 (one per group)", s.count())
	}
	if got := counters.GroupCommitBatches.Load(); got != 2 {
		t.Fatalf("GroupCommitBatches = %d, want 2", got)
	}
	if got := counters.GroupCommitWaiters.Load(); got != 1+followers {
		t.Fatalf("GroupCommitWaiters = %d, want %d", got, 1+followers)
	}
}

// TestGroupSyncerFailurePoisonsOnlyItsGroup: a failed covering fsync is
// delivered to every member of that group — and to no one after it.
func TestGroupSyncerFailurePoisonsOnlyItsGroup(t *testing.T) {
	boom := errors.New("fsync: device on fire")
	s := &gatedSync{entered: make(chan struct{}), gate: make(chan struct{}), errs: []error{nil, boom}}
	g := NewGroupSyncer(s, nil)
	// A first committer's fsync is held in flight, so the two that follow
	// share the next, failing, group.
	first := make(chan error, 1)
	go func() { first <- g.Wait(1) }()
	<-s.entered
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- g.Wait(1)
		}()
	}
	waitJoined(t, g, 2)
	s.gate <- struct{}{}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	<-s.entered
	s.gate <- struct{}{}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("group member error = %v, want the fsync failure", err)
		}
	}
	// A later committer gets the NEXT fsync's (clean) result, not the dead
	// group's error.
	go func() { <-s.entered; s.gate <- struct{}{} }()
	if err := g.Wait(1); err != nil {
		t.Fatalf("post-failure committer inherited a stranger's error: %v", err)
	}
}

// TestDeviceSyncWALCountsFsyncs: SyncWAL fsyncs only when the WAL area is
// dirty and counts each real fsync.
func TestDeviceSyncWALCountsFsyncs(t *testing.T) {
	d, err := Open(t.TempDir(), storage.ScaledHDD(512))
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, d)
	c := &metrics.Counters{}
	d.AttachCounters(c)
	if err := d.SyncWAL(); err != nil { // clean area: no fsync
		t.Fatal(err)
	}
	if got := c.WALFsyncs.Load(); got != 0 {
		t.Fatalf("WALFsyncs after clean SyncWAL = %d, want 0", got)
	}
	if err := d.RotateWAL(1); err != nil { // nothing to seal: no fsync either
		t.Fatal(err)
	}
	if err := d.AppendWAL([]byte("record")); err != nil {
		t.Fatal(err)
	}
	if err := d.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if got := c.WALFsyncs.Load(); got != 1 {
		t.Fatalf("WALFsyncs = %d, want 1", got)
	}
	if err := d.SyncWAL(); err != nil { // already durable: no second fsync
		t.Fatal(err)
	}
	if got := c.WALFsyncs.Load(); got != 1 {
		t.Fatalf("WALFsyncs after redundant SyncWAL = %d, want 1", got)
	}
}
