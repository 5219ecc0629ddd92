// Package readcache is the sharded hot-entry cache that sits in front of
// the LSM engine on the point-read path (lsmstore.Options.ReadCache). It
// maps primary keys to encoded records (positive entries) and remembers
// keys the engine is known not to hold (negative entries), bounded by a
// byte budget and evicted LRU-first per segment.
//
// # Structure
//
// The cache is split into N independently locked segments (power of two;
// a key's segment is chosen by hash). Each segment holds its own map,
// intrusive LRU list, byte budget share, and a version counter. There is
// no global lock: a GET and an unrelated invalidation never contend.
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
// The cache owns what it keeps: an accepted Put copies the value (one
// allocation per accepted fill; a fill discarded by the version gate costs
// nothing), so an entry of a few hundred bytes never pins the 128 KiB page
// it was read from, and the byte budget bounds the memory the cache really
// holds. Get returns the cached slice without copying, and callers must
// treat it as immutable. The bytes an engine read returns on a miss stay
// zero-copy — they alias a component page or a memtable value, immutable
// too (components are write-once, memtable values are replaced, never
// edited in place) — which is what keeps the uncached GET path copy-free.
//
// The cache is deterministic — no wall-clock reads, no randomness — so
// the internal/dst simulation can enable it without breaking
// bit-reproducibility.
package readcache
