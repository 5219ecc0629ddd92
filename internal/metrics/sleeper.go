package metrics

import (
	"time"
)

// Sleeper supplies the two real-time primitives the engine is allowed to
// use for latency-bounded waits: a monotonic reading (for measuring how
// long a stall lasted and for polling deadlines) and a one-shot callback
// timer (for bounding how long a group-commit leader holds its window
// open). Everything else in the engine runs on the virtual Clock; the
// Sleeper is the single seam where "real elapsed time" enters, so that
// deterministic simulation (internal/dst) can replace it with a virtual
// source and make timer firings part of the seeded schedule.
//
// Implementations must be safe for concurrent use. Monotonic readings are
// only ever compared to each other, never to wall-clock time.
type Sleeper interface {
	// Monotonic returns a monotonic reading. Differences between two
	// readings measure elapsed time; the absolute value is meaningless.
	Monotonic() time.Duration
	// AfterFunc runs fn once, on its own goroutine, after at least d has
	// elapsed. The returned stop function cancels the timer; it reports
	// false when fn already ran or was concurrently running.
	AfterFunc(d time.Duration, fn func()) (stop func() bool)
}

// wallSleeper is the default Sleeper: real time via the runtime's
// monotonic clock and time.AfterFunc.
type wallSleeper struct{ base time.Time }

// wall is the one wallSleeper, boxed into the interface once: Clock.Sleeper
// hands it out on every write's backpressure check.
//
//lsm:clocksource-ok wallSleeper is the real-time Sleeper implementation itself
var wall Sleeper = wallSleeper{base: time.Now()}

// WallSleeper returns the process-wide real-time Sleeper.
func WallSleeper() Sleeper { return wall }

func (w wallSleeper) Monotonic() time.Duration {
	//lsm:clocksource-ok the wall Sleeper is the one sanctioned real-time source
	return time.Since(w.base)
}

func (w wallSleeper) AfterFunc(d time.Duration, fn func()) func() bool {
	//lsm:clocksource-ok the wall Sleeper is the one sanctioned real-time source
	t := time.AfterFunc(d, fn)
	return t.Stop
}

// sleeperCell boxes a Sleeper so Clock can swap it atomically.
type sleeperCell struct{ s Sleeper }

// sleeper is the Clock's attached Sleeper (nil means wall time). It lives
// on Clock so every component holding an Env reaches the same time source
// without extra plumbing.
func (c *Clock) Sleeper() Sleeper {
	if cell := c.sleeper.Load(); cell != nil {
		return cell.s
	}
	return WallSleeper()
}

// SetSleeper attaches a Sleeper to the clock. A nil Sleeper restores the
// real-time default. Safe for concurrent use, but intended to be called
// once at construction time, before timers are armed.
func (c *Clock) SetSleeper(s Sleeper) {
	if s == nil {
		c.sleeper.Store(nil)
		return
	}
	c.sleeper.Store(&sleeperCell{s: s})
}
