// Package maint provides the executor of the flush pipeline: a pool that
// runs disk-component builds (flush jobs) and policy-picked merges (merge
// jobs) on a bounded set of workers — or, with zero workers, on the
// goroutine that submits them.
//
// # Why
//
// The paper's concurrency-control protocols (Section 5.3) exist precisely
// so long-running merges can overlap with writers; this package supplies
// the execution side of that design. A dataset has one pipeline — the write
// that crosses the memory budget freezes the memory components (a writer
// drain plus pointer swaps) and submits a build job; the frozen memtables
// stay readable through the trees' flushing queues until their disk
// components install — and the pool only decides where its jobs run
// (lsmstore.Options.MaintenanceWorkers). With workers, the freezing write
// returns at once and maintenance overlaps ingestion. With none, Submit
// runs the job before it returns, so the write that crossed the budget
// performs the build and every due merge itself and ingest latency tracks
// merge latency; there is no second implementation behind that mode, only
// a different caller of the same jobs.
//
// # How the pieces fit
//
// A Pool is shared by every partition of a store, so the total number of
// concurrent maintenance jobs is bounded machine-wide while each dataset
// (shard) schedules its own flush builds and merges independently —
// per-shard compaction. Ordering between jobs of one dataset is enforced
// by the dataset, not the pool: flush builds pop a FIFO batch queue behind
// a per-dataset builder flag (so components install in freeze/epoch
// order), and merges serialize on a per-dataset merger flag while
// remaining free to overlap flush builds (merge installs locate their
// inputs by identity, tolerating concurrently appended components). A job
// that finds its dataset's builder or merger active returns at once and
// leaves the work to it, so neither a worker nor — at zero workers — a
// writer ever waits behind another's build.
//
// Backpressure couples the two sides: writers soft-stall when too many
// frozen batches await builds, or when the primary index accumulates too
// many unmerged components while a merge is still pending. Stall counts
// and durations surface in metrics.Counters (WriteStalls,
// WriteStallNanos).
//
// Failure semantics live outside the pool as well: a simulated Crash bumps
// the trees' install generations, so jobs caught mid-build or mid-merge
// abandon their installs — exactly as a real failure discards a
// half-written component — and the write-ahead log replays whatever died
// with the frozen memtables. Errors from jobs are sticky on the dataset and
// every later write returns them, at any worker count.
//
// The scheduler itself is deliberately minimal: jobs are plain funcs run in
// submission order, and the pool only bounds concurrency and supports
// draining (Drain, Close). Nothing throttles a job once it is queued.
package maint
