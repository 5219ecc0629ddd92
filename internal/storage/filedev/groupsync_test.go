package filedev

import (
	"errors"
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

// TestGroupSyncerLoneCommitterNeverWaits is the stranded-writer guarantee,
// by construction: a single committer with no announced peers must become
// durable immediately even with an enormous hold-open window configured.
func TestGroupSyncerLoneCommitterNeverWaits(t *testing.T) {
	s := &gatedSync{}
	g := NewGroupSyncerOver(s, time.Hour, nil, metrics.WallSleeper())
	g.Announce()
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

// TestGroupSyncerCoalescesAnnouncedCommitters: two committers that have
// both announced before either waits must share ONE covering fsync — the
// leader holds the window open for the announced straggler.
func TestGroupSyncerCoalescesAnnouncedCommitters(t *testing.T) {
	s := &gatedSync{}
	counters := &metrics.Counters{}
	g := NewGroupSyncerOver(s, 10*time.Second, counters, metrics.WallSleeper())
	g.Announce()
	g.Announce()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Wait(1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if s.count() != 1 {
		t.Fatalf("sync calls = %d, want 1 (both committers announced before waiting)", s.count())
	}
	if got := counters.GroupCommitBatches.Load(); got != 1 {
		t.Fatalf("GroupCommitBatches = %d, want 1", got)
	}
	if got := counters.GroupCommitWaiters.Load(); got != 2 {
		t.Fatalf("GroupCommitWaiters = %d, want 2", got)
	}
}

// TestGroupSyncerRetractReleasesLeader: a straggler whose append fails
// retracts; the leader must stop holding the window for it rather than
// burn the whole hold-open window.
func TestGroupSyncerRetractReleasesLeader(t *testing.T) {
	s := &gatedSync{}
	g := NewGroupSyncerOver(s, time.Hour, nil, metrics.WallSleeper())
	g.Announce() // the eventual leader
	g.Announce() // the straggler that will fail its append
	done := make(chan error, 1)
	go func() { done <- g.Wait(1) }()
	time.Sleep(10 * time.Millisecond) // let the leader reach the window
	g.Retract()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("leader still holding the window after the straggler retracted")
	}
}

// TestGroupSyncerAccumulatesDuringInFlightSync: while one group's fsync is
// in flight, later committers pile into the NEXT group and share its
// single fsync — the pipelining that makes the fsync rate independent of
// the commit rate.
func TestGroupSyncerAccumulatesDuringInFlightSync(t *testing.T) {
	// The window (10s, never fully paid) keeps the test deterministic:
	// group 2's leader holds the group open until every announced follower
	// has joined, so all three land in ONE group regardless of scheduling.
	s := &gatedSync{entered: make(chan struct{}), gate: make(chan struct{})}
	g := NewGroupSyncerOver(s, 10*time.Second, nil, metrics.WallSleeper())

	first := make(chan error, 1)
	g.Announce()
	go func() { first <- g.Wait(1) }()
	<-s.entered // group 1's fsync is now in flight

	const followers = 3
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		g.Announce()
		go func() {
			defer wg.Done()
			if err := g.Wait(1); err != nil {
				t.Error(err)
			}
		}()
	}
	// Release group 1; group 2 (all three followers) then syncs once.
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
}

// TestGroupSyncerFailurePoisonsOnlyItsGroup: a failed covering fsync is
// delivered to every member of that group — and to no one after it.
func TestGroupSyncerFailurePoisonsOnlyItsGroup(t *testing.T) {
	boom := errors.New("fsync: device on fire")
	s := &gatedSync{entered: make(chan struct{}), gate: make(chan struct{}), errs: []error{boom}}
	// Both committers announce up front, so the window guarantees they
	// share the failing group.
	g := NewGroupSyncerOver(s, 10*time.Second, nil, metrics.WallSleeper())
	g.Announce()
	g.Announce()
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- g.Wait(1)
		}()
	}
	go func() { <-s.entered; s.gate <- struct{}{} }()
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("group member error = %v, want the fsync failure", err)
		}
	}
	// A later committer gets the NEXT fsync's (clean) result, not the dead
	// group's error.
	g.Announce()
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
