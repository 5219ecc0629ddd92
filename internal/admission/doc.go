// Package admission implements the server's overload-protection layer:
// weighted admission control with load shedding (ROADMAP item 9).
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
package admission
