package server_test

import "testing"

// BenchmarkServerGet measures the full GET round trip — client encode,
// TCP, in-place request decode, engine (or read-cache) lookup, zero-copy
// response encode — with allocations reported for the whole process
// (client and server share it). The cache=on variant serves a resident
// working set; cache=off exercises the engine path.
func BenchmarkServerGet(b *testing.B) {
	for _, bench := range []struct {
		name       string
		cacheBytes int64
	}{
		{"cache=off", 0},
		{"cache=on", 16 << 20},
	} {
		b.Run(bench.name, func(b *testing.B) {
			opts := storeOptions()
			opts.ReadCache.Bytes = bench.cacheBytes
			srv, _ := startServer(b, opts, nil)
			c := dial(b, srv)

			const keys = 512
			pks := make([][]byte, keys)
			for i := range pks {
				pk, rec := tweet(uint64(i))
				pks[i] = pk
				if err := c.Upsert(pk, rec); err != nil {
					b.Fatal(err)
				}
			}
			// Warm the cache (and the buffer cache) once.
			for _, pk := range pks {
				if _, found, err := c.Get(pk); err != nil || !found {
					b.Fatalf("warmup get: found=%v err=%v", found, err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, found, err := c.Get(pks[i%keys]); err != nil || !found {
					b.Fatalf("get: found=%v err=%v", found, err)
				}
			}
		})
	}
}
