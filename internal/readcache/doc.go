// Package readcache is the sharded hot-entry cache that sits in front of
// the LSM engine on the point-read path (lsmstore.Options.ReadCache). It
// maps primary keys to encoded records (positive entries) and remembers
// keys the engine is known not to hold (negative entries), bounded by a
// byte budget and evicted oldest-first per segment.
//
// # Structure
//
// The cache is split into N independently locked segments (power of two;
// a key's segment is chosen by hash). Each segment holds its share of the
// byte budget as a ring of entries, an index over the ring, and a version
// counter. There is no global lock: a GET and an unrelated invalidation
// never contend.
//
// The ring is a circular byte buffer in 16 KiB chunks, allocated as the
// ring first reaches them and kept from then on. An entry is a 16-byte
// header (the key's hash, the value and key lengths, a negative flag), the
// key and the value, written back to back at the ring's head; it may
// straddle a chunk boundary or the ring's end. A fill that needs room
// evicts from the tail, oldest first. An invalidated or refilled entry is
// only dropped from the index: its bytes stay charged until the tail
// passes them. A hit on an entry in the oldest quarter of the ring writes
// it again at the head (a second chance), so a key read at least once per
// quarter lap is never evicted; a working set under three quarters of the
// ring is never rewritten, and the ring's chunks grow no further than it.
//
// The index is an open-addressing table with linear probing over uint64
// slots, each the hash's top 24 bits and the entry's ring offset. A slot
// whose bits match is confirmed against the key bytes in the ring, so two
// keys that share a hash cost a miss, never a wrong record. Deletion
// shifts the probe run back instead of leaving tombstones. The table
// doubles at three-quarters load and never shrinks.
//
// Chunks and slots hold no pointers, so the collector neither scans them
// nor counts objects per entry: the cache's heap is its budget in chunks
// plus the index (Cache.HeapBytes, lsmstore.Stats.ReadCacheBytes). Once
// the ring has filled and the index has reached its size, a fill — its
// copy and the evictions it causes — allocates nothing.
//
// # Invariants — who invalidates, and when
//
// The cache itself never reads the engine; it only remembers what callers
// tell it. Correctness is the writers' obligation and rests on three rules:
//
//  1. Writers invalidate, they never fill. Every mutation path —
//     lsmstore.DB.Insert/Upsert/Delete, and ApplyBatch once every shard's
//     group has applied — calls Invalidate(pk) for each mutated key after
//     the engine applied the mutation and before the write is
//     acknowledged to the caller.
//     A reader that observes the ack therefore can never hit a cache
//     entry predating the write. Uncertain outcomes (a failed covering
//     group-commit fsync zeroes the applied results) still invalidate:
//     an empty cache entry is always safe, a stale one never is.
//
//  2. Fills are version-gated, so a racing reader cannot resurrect a
//     stale value. Get on a miss returns a token carrying the segment's
//     version; the later Put/PutNegative with that token installs the
//     entry only if no Invalidate touched the segment in between
//     (Invalidate and InvalidateAll bump the version). Without the gate,
//     a reader could fetch an old value from the engine, lose the CPU,
//     and insert it after a writer's invalidation — the classic
//     lookaside-cache race. With it, the worst case is a discarded fill.
//
//  3. Crash and recovery flush everything. lsmstore.DB.Crash discards
//     unflushed memtables, so positive entries could otherwise serve
//     writes the crash destroyed; DB.Crash and DB.Recover call
//     InvalidateAll after the engine transition. A real process restart
//     trivially starts cold — the cache is memory-only and never
//     persisted.
//
// The cache owns what it keeps: an accepted Put copies the value into the
// ring (a fill discarded by the version gate costs nothing), so an entry
// of a few hundred bytes never pins the 32 KiB page it was read from, and
// the byte budget bounds the memory the cache really holds. Because the
// ring's bytes are reused, a hit never lends them out: Append copies the
// record into the caller's buffer under the segment lock (lsmstore reuses
// pooled buffers, so a hit allocates nothing), and Get into an exactly
// sized new slice. No caller code runs under a segment lock. The bytes an
// engine read returns on a miss stay zero-copy — they alias a pinned
// component page or a memtable value — which is what keeps the uncached
// GET path copy-free.
//
// The cache is deterministic — no wall-clock reads, no randomness — so
// the internal/dst simulation can enable it without breaking
// bit-reproducibility.
package readcache
