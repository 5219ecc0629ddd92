package filedev

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// GroupSyncer coalesces concurrent WAL commit fsyncs into group commits.
// Committers follow the wal.GroupCommitter protocol: Announce intent,
// append the write's log record to the WAL area (unsynced), then Wait. Wait
// joins the open commit group; the group's first member is its leader and
// issues one SyncWAL covering every member, then wakes them all with the
// result. While that fsync is in flight the NEXT group accumulates — on a
// loaded system the group size grows exactly as fast as commits arrive,
// and the fsync rate is bounded by the device, not the commit rate.
//
// The stranded-writer hazard is fixed by construction rather than by
// tuning: a leader only ever waits for committers that have ANNOUNCED
// intent but not yet joined (they are mid-append and will arrive in
// microseconds), bounded by maxDelay. A lone committer sees zero announced
// peers and fsyncs immediately — no maxDelay is ever paid waiting for
// followers that were never coming.
//
// Error delivery is per group: a failed covering fsync is returned to
// exactly the members of that group, and to no one else. (The device
// additionally poisons its WAL area, so later commits fail with their own
// poisoned-log error instead of inheriting this group's.)
type GroupSyncer struct {
	dev      walSyncer
	maxDelay time.Duration
	counters *metrics.Counters
	sleeper  metrics.Sleeper

	mu        sync.Mutex
	cond      *sync.Cond
	announced int          // committers announced but not yet joined/retracted
	cur       *commitGroup // open group accepting joiners (nil when none)
	syncing   bool         // a leader's fsync is in flight
}

// commitGroup is one commit window: everyone parked on done shares the
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

// NewGroupSyncerOver builds a group syncer over dev's WAL area. maxDelay
// bounds how long a leader holds the group open for announced stragglers
// (0 means never wait — announced committers join the next group instead),
// measured on sleeper: real time, or the deterministic simulation's virtual
// source. counters, when non-nil, accumulate GroupCommitBatches and
// GroupCommitWaiters.
func NewGroupSyncerOver(dev walSyncer, maxDelay time.Duration, counters *metrics.Counters, sleeper metrics.Sleeper) *GroupSyncer {
	g := &GroupSyncer{dev: dev, maxDelay: maxDelay, counters: counters, sleeper: sleeper}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Announce declares an imminent commit append. Every Announce must be
// balanced by exactly one Wait or Retract.
func (g *GroupSyncer) Announce() {
	g.mu.Lock()
	g.announced++
	g.mu.Unlock()
}

// Retract withdraws an announced commit whose append failed, releasing any
// leader holding its group open for it.
func (g *GroupSyncer) Retract() {
	g.mu.Lock()
	g.announced--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Wait joins the open commit group and blocks until a covering fsync
// completes, returning its result. The caller's log records must be fully
// appended before the call: the covering fsync is only issued after
// the group stops accepting joiners, so every member's bytes are under it.
// commits is the number of committed writes this waiter carries (a
// deferred batch parks once for its whole batch).
func (g *GroupSyncer) Wait(commits int64) error {
	g.mu.Lock()
	g.announced--
	g.cond.Broadcast() // a leader may be holding its group open for us
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
	if g.maxDelay > 0 && g.announced > 0 {
		// Announced committers are mid-append and about to join: holding
		// the window open for them trades a bounded sliver of latency for
		// a fatter group. With no announced peers (the lone-writer case)
		// this branch never runs and the fsync is immediate.
		sl := g.sleeper
		deadline := sl.Monotonic() + g.maxDelay
		stop := sl.AfterFunc(g.maxDelay, func() {
			g.mu.Lock()
			g.cond.Broadcast()
			g.mu.Unlock()
		})
		for g.announced > 0 && sl.Monotonic() < deadline {
			g.cond.Wait()
		}
		stop()
	}
	g.cur = nil // joiners from here on open the next group
	g.syncing = true
	g.mu.Unlock()

	err := g.dev.SyncWAL()

	g.mu.Lock()
	g.syncing = false
	g.cond.Broadcast() // wake the next group's leader
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
