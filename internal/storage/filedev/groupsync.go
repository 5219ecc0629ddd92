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
//
// A group is recycled once its last member has read the result, so a
// commit allocates nothing once the syncer has as many groups as are ever
// alive at once (the open one, the one syncing, and any whose members
// have not all woken yet).
type GroupSyncer struct {
	dev      walSyncer
	counters *metrics.Counters

	mu      sync.Mutex
	slot    *sync.Cond     // signalled when the in-flight fsync ends
	cur     *commitGroup   // open group accepting joiners (nil when none)
	syncing bool           // a leader's fsync is in flight
	free    []*commitGroup // groups every member has left
}

// commitGroup is one commit group: every member shares the covering
// fsync's result. Its fields are guarded by the syncer's mu.
type commitGroup struct {
	done    *sync.Cond // broadcast when the covering fsync returns
	closed  bool       // the covering fsync returned; err is its result
	err     error
	commits int64 // committed writes this group's fsync covers
	members int   // waiters that have not read the result yet
}

// walSyncer is the slice of storage.Device a group syncer needs: the raw
// file device, the simulated disk, a wrapper that preserves its sync
// semantics (the deterministic-simulation fault injector), or a test's
// counting stub.
type walSyncer interface{ SyncWAL() error }

// NewGroupSyncer builds a group syncer over dev's WAL area. counters, when
// non-nil, accumulate GroupCommitBatches and GroupCommitWaiters.
func NewGroupSyncer(dev walSyncer, counters *metrics.Counters) *GroupSyncer {
	g := &GroupSyncer{dev: dev, counters: counters}
	g.slot = sync.NewCond(&g.mu)
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
	defer g.mu.Unlock()
	if grp := g.cur; grp != nil {
		// Follower: park on the open group; its leader fsyncs for us.
		grp.commits += commits
		grp.members++
		for !grp.closed {
			grp.done.Wait()
		}
		return g.leave(grp)
	}
	// Leader: open a group, let followers accumulate while any in-flight
	// fsync finishes, then close the group and fsync for everyone in it.
	grp := g.open()
	grp.commits, grp.members = commits, 1
	g.cur = grp
	for g.syncing {
		g.slot.Wait()
	}
	g.cur = nil // joiners from here on open the next group
	g.syncing = true
	g.mu.Unlock()

	err := g.dev.SyncWAL()

	g.mu.Lock()
	g.syncing = false
	g.slot.Signal() // wake the next group's leader
	if g.counters != nil && err == nil {
		// Only groups that actually committed count — a failed covering
		// fsync must not inflate the mean-group-size the A/B reports use.
		g.counters.GroupCommitBatches.Add(1)
		g.counters.GroupCommitWaiters.Add(grp.commits)
	}
	grp.closed, grp.err = true, err
	grp.done.Broadcast()
	return g.leave(grp)
}

// open returns an empty group, recycled when one is free.
func (g *GroupSyncer) open() *commitGroup {
	if n := len(g.free); n > 0 {
		grp := g.free[n-1]
		g.free = g.free[:n-1]
		return grp
	}
	return &commitGroup{done: sync.NewCond(&g.mu)}
}

// leave reads the group's result for one member; the last one to leave
// recycles the group.
func (g *GroupSyncer) leave(grp *commitGroup) error {
	err := grp.err
	if grp.members--; grp.members == 0 {
		*grp = commitGroup{done: grp.done}
		g.free = append(g.free, grp)
	}
	return err
}
