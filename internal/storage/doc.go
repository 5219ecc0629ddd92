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
//     7200 rpm SATA hard disks and SSD (Section 6.1). Pages live in memory;
//     every read is classified as sequential or random against a single
//     head position and charged to the virtual clock per the device
//     Profile (seek + transfer for random reads, transfer only for
//     sequential ones; LSM writes are always sequential bulk loads).
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
// on a shared commit window (filedev.GroupSyncer), and a leader issues one
// SyncWAL covering all of them. One fsync then acknowledges a whole group
// of writes instead of one, which is the difference between
// fsync-rate-bound and device-bound ingest on the file backend. A failed
// SyncWAL poisons the log area: the durable suffix is indeterminate, so
// the device refuses further log appends rather than risk silently
// committing a write whose failure was already reported.
//
// # What the cost model does (and doesn't) measure on real disks
//
// The virtual clock and its Profile describe the *simulated* device only.
// On the file backend, reads and writes still update the event counters
// (pages written, sequential/random reads, cache hits), so the access
// pattern remains observable, but the virtual clock is NOT advanced for
// I/O: seek charges would be fiction on a kernel page cache and modern
// media, and the honest figure for a real device is wall-clock time. CPU
// charges (comparisons, memtable operations) still tick the clock, so
// simulated time on the file backend reflects compute only and must not be
// compared against simulated-device numbers.
//
// Store combines a Device with the shared LRU buffer cache and implements
// the paper's 4 MB scan read-ahead: a missing page read with the scan hint
// prefetches the rest of the device read-ahead window at streaming cost.
// ReadPage returns a pinned cache frame that the caller unpins; a miss reads
// the page into a recycled frame, which is why a device read copies into
// the caller's buffer and never hands out memory of its own.
package storage
