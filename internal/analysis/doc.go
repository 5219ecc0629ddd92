// Package analysis hosts lsmlint, the repo's invariant-enforcing static
// analyzer suite. The subpackages lockio, erraudit, poolleak and
// clocksource each encode one contract the engine's correctness or
// performance depends on; cmd/lsmlint runs them over the packages the
// load subpackage loads, test files included, in CI and locally alike.
//
// # The invariants
//
// lockio — no blocking operation while an engine mutex is held.
// Established by PR 5 (group-commit WAL): the whole point of the group
// commit is that the device mutex is released before the commit fsync, so
// concurrent appends for the next group proceed while the current group's
// fsync is in flight. Holding filedev.Device.mu or wal.Log.mu across an
// fsync, the log's device append, a channel operation, net I/O or a sleep
// re-serializes the write path and silently degrades group commit to one
// fsync per record — a performance regression no unit test catches.
// lockio tracks Lock/Unlock of the configured mutexes through each
// function linearly (branch-sensitive, defer-aware) and through
// same-package call chains, and reports any reachable blocking operation.
// PR 8 added readcache.segment.mu to the default mutex list: every point
// read crosses a cache segment lock, so an I/O or channel wait under it
// would serialize the read path the cache exists to speed up.
//
// erraudit — no silently discarded error in durability-critical packages.
// Established by PR 3 (on-disk persistence): every durability bug found
// while building the disk backend had the same shape, an error from an
// fsync/write/close dropped on the floor while the in-memory image went
// on claiming durability the device never delivered. erraudit flags every
// call whose error result is unused (bare, deferred or goroutine calls)
// and every error assigned to the blank identifier, in the audited
// packages — stricter than errcheck, with no default exclusion list, and
// test files are audited too. internal/readcache is audited as of PR 8:
// the cache sits in front of the engine on every read, and a swallowed
// error there would turn an engine failure into a silent stale serve.
//
// poolleak — pooled buffers must not escape their request.
// Established by PR 5 (encode-buffer pooling on the WAL and wire paths):
// a sync.Pool buffer that escapes — stored in a field or global, returned,
// sent on a channel, captured by a goroutine — either never returns to
// the pool (a leak) or is Put while an alias is live, so a later Get
// scribbles over in-flight data. poolleak taints Get results through
// simple aliases and reports escapes, plus Get sites whose buffer
// provably stays local and is still never Put.
//
// clocksource — simulation code reads only the virtual clock.
// Established by PR 3 (pluggable backends split sim from disk): the cost
// model's reproducibility requires that a seeded sim run be a pure
// function of its seed, which wall-clock reads break. clocksource forbids
// time.Now/Since/Until/Sleep and real timers in the sim and experiments
// packages; the metrics.Clock that I/O and CPU events advance is the only
// admissible time source there. The filedev backend is out of scope — on
// real hardware wall time is the honest measure.
//
// # Exceptions
//
// A justified exception is annotated in the source with
//
//	//lsm:<analyzer>-ok <why this exemption is sound>
//
// (erraudit uses //lsm:allow-discard). The directive counts when it sits
// on the flagged line, on the line directly above, or in the enclosing
// function's doc comment; the /*lsm:...*/ form works where the line needs
// a second comment. The reason is mandatory: a directive without one does
// not suppress anything and is itself reported, so an exemption cannot
// land without its written justification.
//
// # Running
//
//	go run ./cmd/lsmlint ./...
//
// Every matched package is analyzed with its _test.go files, and so is its
// external test package, which an analyzer's scope covers wherever it
// covers the package. The scopes are the analyzers' Flags (lockio's
// mutexes, erraudit's packages, ...), which the tests point at their
// fixtures; the defaults encode the engine's current contracts.
//
// # Implementation note
//
// The framework is a stdlib-only reimplementation of the core of
// golang.org/x/tools/go/analysis: this repo builds with no module
// dependencies, so Analyzer/Pass/Diagnostic are defined here and the load
// subpackage type-checks packages via `go list -test -export`. Analyzers
// written against this package port to x/tools by swapping one import.
package analysis
