package lsmclient

import (
	"sync"
	"time"

	"repro/internal/wire"
)

// call is one request attempt's rendezvous: the channel the connection's
// reader delivers the response on, and the timer bounding the wait. Calls
// are recycled through callPool, so a round trip allocates neither.
//
// A call may go back to the pool only when nothing else can touch its
// channel any more, which is exactly two cases: its response was received
// (readLoop removes the pending entry before its one send), or its timeout
// removed the pending entry itself (conn.abandon returned true, so neither
// readLoop nor conn.close will ever see it). In every other case — the
// channel was closed by conn.close, the timeout lost the race with
// readLoop, the send failed — the call is left to the garbage collector.
type call struct {
	ch    chan wire.Response // capacity 1: readLoop's send never blocks
	timer *time.Timer        // nil until the first timed wait
}

var callPool = sync.Pool{New: func() any { return &call{ch: make(chan wire.Response, 1)} }}

// arm starts the call's timeout and returns the channel it fires on. The
// timer is created once and reset on every later use. That relies on the
// Go 1.23 timer semantics go.mod's "go 1.24" selects: after Stop or Reset
// returns, the channel delivers no value from the timer's earlier arming,
// so a recycled call never sees a stale timeout.
func (cl *call) arm(d time.Duration) <-chan time.Time {
	if cl.timer == nil {
		cl.timer = time.NewTimer(d)
	} else {
		cl.timer.Reset(d)
	}
	return cl.timer.C
}
