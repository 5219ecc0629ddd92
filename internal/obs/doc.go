// Package obs is the observability layer: latency histograms, a per-op
// registry, a slow-request ring, a maintenance journal, and a Prometheus
// text-format writer. Everything in it is stdlib-only and designed so
// that turning observability on never changes what the engine computes —
// it only measures.
//
// # Histogram design
//
// Hist is a log-bucketed histogram over non-negative int64 nanosecond
// values. Values below 64ns get exact width-1 buckets; above that each
// power-of-two octave is split into 32 sub-buckets, so a bucket's width
// is at most 1/32 of its lower bound and the midpoint a quantile reports
// is within ~1.6% of any value in the bucket (comfortably inside the
// ~5% budget the tests enforce). 1920 buckets cover the full int64 range
// in 15KB of atomic counters per histogram.
//
// # Allocation and blocking invariants
//
//   - Hist.Record / Hist.RecordNanos and Registry.RecordOp /
//     Registry.RecordStage are lock-free and allocation-free: an atomic
//     add on one bucket, an atomic add on the sum, and a CAS loop on the
//     max. They never block and are safe from any goroutine, including
//     the request hot path.
//   - Hist.Snapshot, Registry.*Snapshots, Journal.Events/Summary,
//     SlowLog.Entries and the PromWriter allocate freely — they are dump
//     paths, called by HTTP handlers and tests, never per-request.
//   - SlowLog.Add and Journal begin/end take a mutex but only touch
//     preallocated ring memory under it — no I/O, no channel sends, no
//     allocation while locked (the lockio analyzer audits this).
//   - The journal and slow log are bounded rings: a stalled or absent
//     reader can never make them grow.
//
// # Time
//
// obs never reads the engine's virtual clock. Request and stage durations
// are measured by the server on the wall clock and handed in; journal
// events are timed by obs itself, from Begin to End, on the same
// process-monotonic offset (monotonic()) that stamps ring entries for
// reporting event age. None of it
// feeds back into engine decisions, which is what keeps deterministic
// simulation runs bit-identical with observability on or off.
package obs
