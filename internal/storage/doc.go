// Package storage provides the device layer underneath every LSM
// component, behind two interfaces (device.go). Device is what every device
// has: page-granular, append-only component files created by flush/merge
// bulk loads and read by point lookups and scans, and the write-ahead log's
// area, which recovery reads back. Durable is a Device that also keeps a
// manifest — with the log, the paper's durability model (Section 2.2).
// core.Open asserts Durable once and keeps the answer on the dataset; the
// simulation's wrapper (dst.Control.Wrap) asserts it of the device it
// wraps; and lsmstore.Open refuses a shard whose Options.WrapDevice hook
// returned a device that is not one.
//
// # Devices
//
// Two implementations exist:
//
//   - The file-backed device (internal/storage/filedev), the one Durable,
//     is what every lsmstore.DB runs on. It maps each component file to a
//     real file under a data directory, batches appends, fsyncs on WAL
//     commit and component install, and persists a manifest so a store can
//     be reopened after a clean shutdown or a crash. See that package's
//     documentation for the layout.
//
//   - The simulated device (*Disk, this package) is the figures' device:
//     internal/experiments runs the paper's Section 6 experiments on it,
//     and tests use it as a reference. It stands in for the paper's
//     7200 rpm SATA hard disks and SSD (Section 6.1). Pages and log
//     segments live in memory, and SyncWAL does nothing. Nothing survives
//     process exit — a crash is simulated by discarding memory components,
//     and recovery decodes the log segments the disk holds.
//
// # WAL durability and group commit
//
// A device's log area takes appends, loads what it holds, rotates to a
// fresh segment and drops a sealed one. An append never
// fsyncs: SyncWAL — an fsync of the log area decoupled from any append — is
// the only commit fsync, and group commit builds on it: concurrent
// committers append their log records unsynced, park
// on a shared commit group (filedev.GroupSyncer), and a leader issues one
// SyncWAL covering all of them. One fsync then acknowledges a whole group
// of writes instead of one, which is the difference between
// fsync-rate-bound and device-bound ingest on files. A failed
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
// sequential bulk loads). A page is charged whole whatever its length: a
// meta page, a short internal page and a Bloom filter's short tail page cost
// one transfer each, as every page did when pages were fixed slots, so
// charging by length would move every figure. Every WithEnv view of a Store moves the same
// head, so maintenance-lane reads break the foreground's sequential runs as
// they would on one spindle. A failed read or append charges nothing.
//
// Virtual time therefore means the same thing on files as on the simulated
// device: the same workload reads the same counters and the same clocks on
// both. It is the paper's model of the access pattern, not
// a measurement of the files; on real files wall-clock time is the
// separate, real measure.
//
// Store combines a Device with the shared LRU buffer cache and implements
// the paper's 4 MB scan read-ahead: a missing page read with the scan hint
// prefetches the rest of the device read-ahead window at streaming cost.
// ReadPage returns a pinned cache frame that the caller unpins; a miss reads
// the page into a recycled frame, which is why a device read copies into
// the caller's buffer and never hands out memory of its own. A page of half
// a frame or less (internal and meta pages) is then cached in a recycled
// frame of its size class, and the whole frame goes back to the free list.
//
// Maintenance scans do not fill the cache. A merge reads each input once,
// front to back, and deletes it when its output installs, so its scans (of
// the input components and, under the Deleted-key strategy, of their
// deleted-key trees) read with ReadStreamed: a cached page is a hit, a
// missing one is read into a recycled frame that is never cached, and the
// scan's read-ahead window is charged at the read that opens it exactly as
// ReadPage's prefetch would be. Virtual time is the same as a cached scan
// on the same cache contents; what changes is that the foreground's pages
// stay cached.
package storage
