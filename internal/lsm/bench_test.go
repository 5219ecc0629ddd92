package lsm

import (
	"testing"

	"repro/internal/kv"
	"repro/internal/memtable"
)

// buildMemBytes is a flush's memory component: the served default budget.
const buildMemBytes = 4 << 20

// memOfSize returns a memory component of at least size bytes, keys 0 and up
// with 100-byte values, and how many keys it holds.
func memOfSize(size int) (*memtable.Table, int) {
	mem := memtable.New(1)
	value := make([]byte, 100)
	n := 0
	for ; mem.Bytes() < size; n++ {
		mem.Put(kv.Entry{Key: key(n), Value: value, TS: int64(n)})
	}
	return mem, n
}

// BenchmarkFlushBuild: a 4 MiB memory component becomes one component on
// 32 KiB pages. Only the build is timed; its file is deleted again.
//
//	go test -run '^$' -bench 'FlushBuild|MergeBuild' -benchtime=200x -benchmem ./internal/lsm
func BenchmarkFlushBuild(b *testing.B) {
	tr, _ := newTestTree(b, buildPageSize, nil)
	mem, _ := memOfSize(buildMemBytes)
	b.SetBytes(int64(mem.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		comp, err := tr.BuildFrozen(mem, 1)
		if err != nil {
			b.Fatal(err)
		}
		tr.Discard(comp)
	}
}

// BenchmarkMergeBuild: four components of 1 MiB of records each become one,
// on 32 KiB pages. Only the merge is timed; its output is deleted again.
func BenchmarkMergeBuild(b *testing.B) {
	tr, _ := newTestTree(b, buildPageSize, nil)
	mem, n := memOfSize(buildMemBytes / 4)
	fillComponents(b, tr, 4, n)
	b.SetBytes(4 * int64(mem.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		res, err := tr.Merge(MergeSpec{Lo: 0, Hi: 4, DropAnti: true})
		if err != nil {
			b.Fatal(err)
		}
		tr.Discard(res.Component)
	}
}
