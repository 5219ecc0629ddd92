package filedev

import (
	"sync"

	"repro/internal/metrics"
)

// GroupSyncer coalesces concurrent WAL commit fsyncs into group commits,
// leader/follower style. A committer appends its write's log record to the
// WAL area (unsynced), then Waits. Wait joins the open commit group; the
// group's first member is its leader, which waits only for an fsync already
// in flight, then closes the group and issues one SyncWAL covering every
// member that joined, and wakes them all with the result. While that fsync
// is in flight the NEXT group accumulates — on a loaded system the group
// size grows exactly as fast as commits arrive, and the fsync rate is
// bounded by the device, not the commit rate. A lone committer finds no
// fsync in flight and fsyncs at once: no leader ever waits for followers.
//
// Error delivery is per group: a failed covering fsync is returned to
// exactly the members of that group, and to no one else. (The device
// additionally poisons its WAL area, so later commits fail with their own
// poisoned-log error instead of inheriting this group's.)
type GroupSyncer struct {
	dev      walSyncer
	counters *metrics.Counters

	mu      sync.Mutex
	cond    *sync.Cond
	cur     *commitGroup // open group accepting joiners (nil when none)
	syncing bool         // a leader's fsync is in flight
}

// commitGroup is one commit group: everyone parked on done shares the
// covering fsync's result.
type commitGroup struct {
	done    chan struct{}
	err     error
	commits int64 // committed writes this group's fsync covers
}

// walSyncer is the slice of storage.Durable a group syncer needs: the raw
// file device, a wrapper that preserves its sync semantics (the
// deterministic-simulation fault injector), or a test's counting stub.
type walSyncer interface{ SyncWAL() error }

// NewGroupSyncer builds a group syncer over dev's WAL area. counters, when
// non-nil, accumulate GroupCommitBatches and GroupCommitWaiters.
func NewGroupSyncer(dev walSyncer, counters *metrics.Counters) *GroupSyncer {
	g := &GroupSyncer{dev: dev, counters: counters}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Wait joins the open commit group and blocks until a covering fsync
// completes, returning its result. The caller's log records must be fully
// appended before the call: the covering fsync is only issued after
// the group stops accepting joiners, so every member's bytes are under it.
// commits is the number of committed writes this waiter carries (a
// deferred batch parks once for its whole batch).
func (g *GroupSyncer) Wait(commits int64) error {
	g.mu.Lock()
	if g.cur != nil {
		// Follower: park on the open group; its leader fsyncs for us.
		grp := g.cur
		grp.commits += commits
		g.mu.Unlock()
		<-grp.done
		return grp.err
	}
	// Leader: open a group, let followers accumulate while any in-flight
	// fsync finishes, then close the group and fsync for everyone in it.
	grp := &commitGroup{done: make(chan struct{}), commits: commits}
	g.cur = grp
	for g.syncing {
		g.cond.Wait()
	}
	g.cur = nil // joiners from here on open the next group
	g.syncing = true
	g.mu.Unlock()

	err := g.dev.SyncWAL()

	g.mu.Lock()
	g.syncing = false
	g.cond.Signal() // wake the next group's leader
	if g.counters != nil && err == nil {
		// Only groups that actually committed count — a failed covering
		// fsync must not inflate the mean-group-size the A/B reports use.
		g.counters.GroupCommitBatches.Add(1)
		g.counters.GroupCommitWaiters.Add(grp.commits)
	}
	g.mu.Unlock()
	grp.err = err
	close(grp.done)
	return err
}
