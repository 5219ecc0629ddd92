package server

import (
	"testing"

	"repro/internal/wire"
)

// TestPutReqBufClearsAndBounds: a request buffer's mutation list points
// into its frame, so putReqBuf clears every entry up to the list's
// capacity — a failed decode can leave entries past its length — and a
// list one huge batch grew past maxPooledMuts is dropped, not pooled.
func TestPutReqBufClearsAndBounds(t *testing.T) {
	// A frame too large to pool keeps the test's buffers out of the pool.
	frame := make([]byte, 16, maxPooledFrame+1)
	muts := make([]wire.Mutation, 8)
	for i := range muts {
		muts[i] = wire.Mutation{Op: wire.MutUpsert, PK: frame[:2], Record: frame[2:]}
	}
	rb := &reqBuf{frame: frame, muts: muts[:2]}
	putReqBuf(rb)
	if len(rb.muts) != 0 || cap(rb.muts) != 8 {
		t.Fatalf("list after put: len %d cap %d, want 0 and 8", len(rb.muts), cap(rb.muts))
	}
	for i, m := range rb.muts[:cap(rb.muts)] {
		if m.PK != nil || m.Record != nil || m.Op != 0 {
			t.Fatalf("entry %d still holds %+v after put", i, m)
		}
	}

	big := &reqBuf{frame: frame, muts: make([]wire.Mutation, 0, maxPooledMuts+1)}
	putReqBuf(big)
	if big.muts != nil {
		t.Fatalf("a list of capacity %d was kept for the pool", cap(big.muts))
	}
}
