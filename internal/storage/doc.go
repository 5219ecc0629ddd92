// Package storage provides the device layer underneath every LSM
// component, behind two interfaces (device.go). Device is the page half:
// page-granular, append-only component files created by flush/merge bulk
// loads and read by point lookups and scans. Durable is a Device that also
// keeps a manifest and a write-ahead-log area — the paper's durability
// model (Section 2.2), one contract a device has whole or not at all.
// core.Open asserts Durable once and keeps the answer on the dataset; the
// simulation's wrapper (dst.Control.Wrap) asserts it of the device it
// wraps; nothing else asserts, and lsmstore.Open refuses a file-backend
// shard whose Options.WrapDevice hook returned a device that is not one.
//
// # Backends
//
// Two implementations exist:
//
//   - The simulated device (*Disk, this package) stands in for the paper's
//     7200 rpm SATA hard disks and SSD (Section 6.1). Pages live in memory.
//     Nothing survives process exit — crash/recovery is simulated by
//     discarding memory components.
//
//   - The file-backed device (internal/storage/filedev), the one Durable,
//     maps each component file to a real file under a data directory,
//     batches appends, fsyncs on WAL commit and component install, and
//     persists a manifest so a store can be reopened after a clean
//     shutdown or a crash. See that package's documentation for the layout.
//
// # WAL durability and group commit
//
// A Durable's log area takes appends, loads what previous sessions left,
// rotates to a fresh segment and drops a sealed one. An append never
// fsyncs: SyncWAL — an fsync of the log area decoupled from any append — is
// the only commit fsync, and group commit builds on it: concurrent
// committers append their log records unsynced, park
// on a shared commit group (filedev.GroupSyncer), and a leader issues one
// SyncWAL covering all of them. One fsync then acknowledges a whole group
// of writes instead of one, which is the difference between
// fsync-rate-bound and device-bound ingest on the file backend. A failed
// SyncWAL poisons the log area: the durable suffix is indeterminate, so
// the device refuses further log appends rather than risk silently
// committing a write whose failure was already reported.
//
// # One cost model, on every device
//
// A device only stores and returns pages. Store, the one caller of the
// device page methods, applies the paper's device model (Section 6.1) to
// the access pattern, whatever the device beneath it: it keeps the single
// head position, classifies every device read as sequential (the page
// right after the previous read, on the same file) or random, counts the
// reads and the pages written, and charges the device Profile to the
// virtual clock — seek + transfer for a random read, transfer only for a
// sequential one, a prefetched one or a page write (LSM writes are always
// sequential bulk loads). Every WithEnv view of a Store moves the same
// head, so maintenance-lane reads break the foreground's sequential runs as
// they would on one spindle. A failed read or append charges nothing.
//
// Virtual time therefore means the same thing on the file backend as on
// the simulated one: the same workload reads the same counters and the
// same clocks on both. It is the paper's model of the access pattern, not
// a measurement of the files; on real files wall-clock time is the
// separate, real measure.
//
// Store combines a Device with the shared LRU buffer cache and implements
// the paper's 4 MB scan read-ahead: a missing page read with the scan hint
// prefetches the rest of the device read-ahead window at streaming cost.
// ReadPage returns a pinned cache frame that the caller unpins; a miss reads
// the page into a recycled frame, which is why a device read copies into
// the caller's buffer and never hands out memory of its own.
package storage
