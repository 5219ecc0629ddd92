package wire

import (
	"bytes"
	"runtime"
	"testing"
	"weak"
)

// TestResponseDecoderCapsCarves: a carved value and a carved batch report
// are capacity-limited, so appending to one copies it rather than writing
// into the answer carved next to it.
func TestResponseDecoderCapsCarves(t *testing.T) {
	var d ResponseDecoder
	a, _ := d.Decode(AppendResponse(nil, Response{ID: 1, Kind: KindValue, Found: true, Value: []byte("first")}))
	b, _ := d.Decode(AppendResponse(nil, Response{ID: 2, Kind: KindValue, Found: true, Value: []byte("second")}))
	x, _ := d.Decode(AppendResponse(nil, Response{ID: 3, Kind: KindBatch, AppliedBatch: []bool{true, true}}))
	y, _ := d.Decode(AppendResponse(nil, Response{ID: 4, Kind: KindBatch, AppliedBatch: []bool{true, true}}))
	if cap(a.Value) != len(a.Value) || cap(x.AppliedBatch) != len(x.AppliedBatch) {
		t.Fatalf("carves have capacity %d for %d bytes and %d for %d flags", cap(a.Value), len(a.Value), cap(x.AppliedBatch), len(x.AppliedBatch))
	}
	_ = append(a.Value, "XXXXXX"...)
	_ = append(x.AppliedBatch, false, false)
	if string(b.Value) != "second" || !y.AppliedBatch[0] || !y.AppliedBatch[1] {
		t.Fatalf("an append reached the next answer: %q, %v", b.Value, y.AppliedBatch)
	}
}

// TestDecoderChunkReleased: a chunk the decoder has moved on from stays
// alive while a value carved from it is kept, and is collected once the
// last one is dropped — for the byte chunk and the flag chunk alike. A
// kept value keeps its own chunk alive and no other.
func TestDecoderChunkReleased(t *testing.T) {
	var d ResponseDecoder
	value := AppendResponse(nil, Response{ID: 1, Kind: KindValue, Found: true, Value: bytes.Repeat([]byte("v"), 500)})
	report := AppendResponse(nil, Response{ID: 2, Kind: KindBatch, AppliedBatch: make([]bool, 64)})
	decode := func(frame []byte) Response {
		r, err := d.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// moveOn decodes, and drops, answers until the decoder opens a new
	// chunk: the carved length of its current one falls.
	moveOn := func() {
		for before := len(d.bytes); ; {
			if decode(value); len(d.bytes) < before {
				break
			}
			before = len(d.bytes)
		}
		for before := len(d.bools); ; {
			if decode(report); len(d.bools) < before {
				break
			}
			before = len(d.bools)
		}
	}
	first, firstReport := decode(value), decode(report)
	kept, keptFlags := weak.Make(&d.bytes[:1][0]), weak.Make(&d.bools[:1][0])
	moveOn()
	dropped, droppedFlags := weak.Make(&d.bytes[:1][0]), weak.Make(&d.bools[:1][0])
	moveOn()
	runtime.GC()
	if kept.Value() == nil || keptFlags.Value() == nil {
		t.Fatal("a chunk was collected while a value carved from it was kept")
	}
	if dropped.Value() != nil || droppedFlags.Value() != nil {
		t.Error("a chunk the decoder left behind, with no value kept, is still reachable")
	}
	if !bytes.Equal(first.Value, bytes.Repeat([]byte("v"), 500)) || len(firstReport.AppliedBatch) != 64 {
		t.Fatal("the kept answers changed")
	}
	runtime.KeepAlive(first.Value)
	runtime.KeepAlive(firstReport.AppliedBatch)
	runtime.GC()
	if kept.Value() != nil || keptFlags.Value() != nil {
		t.Error("the first chunks are still reachable after their last values were dropped")
	}
	runtime.KeepAlive(&d)
}
