// Package admission implements the server's overload-protection layer:
// weighted admission control with load shedding, and the load-coupled
// maintenance governor (ROADMAP item 9).
//
// # Admission control
//
// A Controller holds a global weighted in-flight budget. Each request
// class (read, write, batch, query, scan) carries a weight approximating
// its engine cost; a request is admitted when the sum of admitted weights
// fits the budget. When it does not, the request joins a bounded FIFO
// queue with a queue deadline. Shedding is deliberate and fast, never
// implicit and slow:
//
//   - queue full: the request is shed immediately (ErrOverloaded);
//   - queue deadline expired: the waiter sheds itself (ErrOverloaded) and
//     hands the budget on to whoever queued behind it.
//
// A shed request never touches the engine: the cost of saying "no" is one
// mutex acquisition and an error frame, which is what keeps goodput near
// the capacity ceiling when offered load is a multiple of it.
//
// # Invariants
//
//  1. The in-flight weight never exceeds the budget (a single class
//     weight larger than the whole budget is clamped to it, so oversized
//     requests serialize instead of deadlocking).
//  2. Admission is FIFO among queued waiters: a waiter is only granted
//     when everything queued before it has been granted or shed.
//  3. Every Acquire resolves: admitted, shed because the queue is full,
//     shed by deadline, or failed by Close. Nothing waits forever — the
//     queue deadline bounds the wait, and Close sheds the queue.
//  4. No blocking operation runs while Controller.mu is held (enforced
//     by the lockio analyzer): waiters block on their own channel outside
//     the lock, and grants are channel closes, which do not block.
//
// # The maintenance governor and the no-deadlock argument
//
// The Governor couples foreground latency to background maintenance: it
// samples the obs Registry's get/upsert interval p99 each tick and steers
// a token Bucket that gates merge-job dispatch in the maintenance pool
// (AIMD: halve the merge rate when p99 is over target, multiplicatively
// recover when comfortably under). Flush jobs are never gated — memtable
// freezes must always drain, or ingest stalls forever.
//
// Throttled maintenance and write backpressure are natural deadlock
// partners: writers stall on the frozen-memtable/unmerged-component
// ceilings until maintenance catches up, so maintenance paused
// indefinitely would park writers indefinitely. The design makes that
// impossible by construction:
//
//   - The bucket's refill rate has a hard floor (GovernorConfig.MinRate,
//     never zero or below): a gated merge job waits at most ~1/MinRate
//     seconds for a token. Throttling delays merges, it never pauses
//     them, so every backpressure stall clears in bounded time.
//   - Flush jobs bypass the gate entirely (maint.JobFlush), and the pool
//     prefers a queued flush over a queued merge when a gate is
//     installed, so the frozen-memtable ceiling — the tighter of the two
//     — is never behind a throttled dispatch.
//   - Closing the bucket (governor stop, server shutdown, a governor
//     panic) opens the gate permanently: Wait returns immediately, so a
//     draining store is never slowed by a stale throttle.
//
// A governor that dies must not die silently: its loop runs under
// recover, and a panic parks the sticky LastError (surfaced on /stats as
// GovernorLastError) and opens the gate. Stale throttle state cannot
// outlive its controller.
package admission
