package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/metrics"
)

// heldPage is a frame a reader holds and the page it asked for.
type heldPage struct {
	*cache.Frame
	page int
}

// mixedSizes are the page lengths of a mixed file at a 512-byte page, in
// the order its pages repeat them: whole pages between small ones of every
// size class, from half a frame down to the 8-byte 64th, with lengths that
// do not fill their class.
var mixedSizes = []int{512, 200, 480, 100, 512, 40, 300, 20, 512, 9, 420, 3, 256, 129, 64, 8}

// mixedPage is the body of page p of a mixed file: its length picked from
// mixedSizes, every byte naming the page.
func mixedPage(p int) []byte {
	return bytes.Repeat([]byte{byte(p)}, mixedSizes[p%len(mixedSizes)])
}

// isMixedPage reports whether data is page p of a mixed file, without
// allocating.
func isMixedPage(data []byte, p int) bool {
	if len(data) != mixedSizes[p%len(mixedSizes)] {
		return false
	}
	for _, b := range data {
		if b != byte(p) {
			return false
		}
	}
	return true
}

// newMixedStore returns a Store over a Disk of 512-byte pages whose cache
// holds frames pages, and a file of pages mixed pages.
func newMixedStore(t testing.TB, frames, pages int) (*Store, FileID, *metrics.Env) {
	const pageSize = 512
	env := metrics.NewEnv()
	store := NewStore(NewDisk(ScaledHDD(pageSize)), int64(frames*pageSize), env)
	f := store.Create()
	for p := range pages {
		if _, err := store.AppendPage(f, mixedPage(p)); err != nil {
			t.Fatal(err)
		}
	}
	return store, f, env
}

// TestMixedMissesAllocateNothing: on a full cache, misses that interleave
// whole pages with small pages of every size class each read into a
// recycled whole frame and move a small page into a recycled frame of its
// class, so once every class has cached a page and freed one, no miss
// allocates.
func TestMixedMissesAllocateNothing(t *testing.T) {
	const frames, pages = 2 * 16, 8 * 16 // each miss evicts a page of its own class
	store, f, env := newMixedStore(t, frames, pages)
	p := 0
	read := func() {
		fr, err := store.ReadPage(f, p%pages, false)
		if err != nil || !isMixedPage(fr.Data, p%pages) {
			t.Fatalf("page %d: %v", p%pages, err)
		}
		store.Unpin(fr)
		p++
	}
	// Fit takes a small page's class frame before its eviction frees one,
	// so each class allocates one frame more than it caches, once.
	for range frames + len(mixedSizes) {
		read()
	}
	before := env.Counters.Snapshot()
	if allocs := testing.AllocsPerRun(4*pages, read); allocs != 0 {
		t.Fatalf("a mixed miss into a full cache allocates %v times, want 0", allocs)
	}
	d := env.Counters.Snapshot().Sub(before)
	if d.CacheMisses != 4*pages+1 || d.FrameReuses != d.CacheMisses || d.FrameAllocs != 0 {
		t.Fatalf("misses/reuses/allocs = %d/%d/%d: every miss should reuse a frame", d.CacheMisses, d.FrameReuses, d.FrameAllocs)
	}
}

// TestRecycledClassFramesNeverServeStaleBytes races readers of mixed pages
// — point reads, read-ahead scans and streamed scans — over a four-frame
// cache whose freed frames are poisoned, so whole frames and the frames of
// every small class are recycled under them all the time. Every page a
// reader holds must stay byte for byte the page it asked for until it
// unpins it. Run it under -race: a frame recycled while still pinned also
// races with the read that refills it.
func TestRecycledClassFramesNeverServeStaleBytes(t *testing.T) {
	const frames, pages, readers, rounds = 4, 96, 4, 600
	store, f, env := newMixedStore(t, frames, pages)
	store.Cache().SetPoison(true)
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held := make([]heldPage, 0, 3)
			for i := range rounds {
				p := (i*(7+2*r) + r) % pages
				var fr *cache.Frame
				var err error
				switch i % 3 {
				case 0:
					fr, err = store.ReadPage(f, p, false)
				case 1:
					fr, err = store.ReadPage(f, p, true)
				default:
					var w Window
					fr, err = store.ReadStreamed(f, p, &w)
				}
				if err != nil {
					errs <- err
					return
				}
				held = append(held, heldPage{fr, p})
				if len(held) == cap(held) { // hold a few pages across later reads
					for _, h := range held {
						if !isMixedPage(h.Data, h.page) {
							errs <- fmt.Errorf("reader %d: page %d reads %x, want %d bytes of %#x", r, h.page, h.Data, len(mixedPage(h.page)), byte(h.page))
							return
						}
						store.Unpin(h.Frame)
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				store.Unpin(h.Frame)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := store.Cache().Pinned(); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}
	if s := env.Counters.Snapshot(); s.FrameReuses == 0 || s.PinnedEvictions == 0 {
		t.Fatalf("reuses/pinned evictions = %d/%d: the readers recycled nothing under each other", s.FrameReuses, s.PinnedEvictions)
	}
}

// BenchmarkStoreReadPage times a buffer-cache miss on a full cache: the
// device read into a recycled whole frame, the move of a small page into a
// frame of its class, and the eviction. full reads whole pages, small only
// pages of half a frame or less, mixed both in turn. Run it with -benchmem.
func BenchmarkStoreReadPage(b *testing.B) {
	for _, bc := range []struct {
		name string
		keep func(p int) bool
	}{
		{"full", func(p int) bool { return 2*len(mixedPage(p)) > 512 }},
		{"small", func(p int) bool { return 2*len(mixedPage(p)) <= 512 }},
		{"mixed", func(int) bool { return true }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const frames, pages = 64, 1024
			store, f, _ := newMixedStore(b, frames, pages)
			var order []int
			for p := range pages {
				if bc.keep(p) {
					order = append(order, p)
				}
			}
			read := func(i int) {
				fr, err := store.ReadPage(f, order[i%len(order)], false)
				if err != nil {
					b.Fatal(err)
				}
				store.Unpin(fr)
			}
			for i := range len(order) {
				read(i)
			}
			b.ResetTimer()
			for i := range b.N {
				read(i)
			}
		})
	}
}
