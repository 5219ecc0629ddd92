// Package dst is the deterministic simulation testing harness
// (FoundationDB-style) for the LSM store: one seed drives a workload, a
// fault schedule, kill points, and crash-image reconstruction, and the
// whole run — op trace, fault schedule, verdict — reproduces bit-for-bit
// from that seed alone.
//
// # Architecture
//
// Four pieces compose a run:
//
//   - Control/Device (device.go): a storage.Device wrapper over the real
//     file backend — a storage.Durable exactly when the device beneath it
//     is one (Wrap's single assertion) — that traces every mutating and
//     durability operation, injects seeded faults (failed commit fsyncs,
//     lying group fsyncs, torn WAL appends, failed manifest installs,
//     failed page appends), enforces a crash-at-op-N kill switch —
//     component unlinks, log rotations and segment drops count as
//     operations, so a kill lands between a manifest install and what it
//     lets go of — and tracks the durable prefix of each shard's live WAL
//     segment for the crash-image builder.
//   - Sched (sched.go): the yield hook the engine calls at its
//     instrumented scheduling points (WAL group commit, maintenance
//     pool).
//   - Model (model.go): an in-memory mirror holding each key's
//     acknowledged state plus the set of unacknowledged writes whose fate
//     is open, with three check regimes — exact in-session reads, legal
//     states after an in-process crash-recover, and legal states after a
//     process kill and reopen.
//   - harness (harness.go): the session loop — open, reconcile the model
//     against the reopened store, drive seeded workload ops with strict
//     read/query/scan checking, crash (soft or hard), repeat — plus the
//     greedy fault-schedule minimizer (minimize.go) and the CLI core
//     (cli.go) that cmd/lsmdst wraps.
//
// # Determinism contract
//
// A run with Profile Seq is bit-reproducible: same seed, same op trace
// hash, same fault schedule, same verdict, on every execution. That rests
// on rules this package (and the engine paths it exercises) must keep:
//
//   - No wall clock. Nothing under internal/dst reads time.Now, sleeps,
//     or arms runtime timers, and no engine decision waits on one: the
//     group-commit leader waits only for an fsync already in flight, and
//     the engine's one wall-clock reading (backpressure stall time) lands
//     in a counter the harness never reads. The lsmlint clocksource
//     analyzer enforces this for the package. Wall-clock concerns (sweep
//     deadlines) live in cmd/lsmdst only.
//   - No bare goroutines in checked paths. The Seq profile runs the
//     store single-threaded (no maintenance workers, shard fan-out of
//     one), and a lone committer is its own commit-group leader, so no
//     scheduling decision is left to the runtime. The Conc profile
//     deliberately gives that up: verdicts stay sound, traces are not
//     comparable.
//   - No map-iteration order. Every check that walks model state sorts
//     keys first; the trace never records anything derived from Go map
//     order.
//   - Seeded streams are forked per purpose (workload, session policy,
//     crash images, fault decisions), so adding draws to one stream
//     never shifts another. Fault decisions are additionally stateless —
//     a pure function of (shard, op, per-op ordinal) — so the minimizer
//     can suppress one fault without reshuffling the rest.
//
// The determinism test (dst_test.go in lsmstore) runs the same seed five
// times and asserts identical full traces, fault schedules, and verdicts.
package dst
