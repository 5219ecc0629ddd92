package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpGet, Key: []byte("pk-7")},
		{ID: 3, Op: OpUpsert, Key: []byte("pk"), Value: []byte("record")},
		{ID: 4, Op: OpInsert, Key: []byte{0, 1, 2}, Value: []byte{0xff}},
		{ID: 5, Op: OpDelete, Key: []byte("gone")},
		{ID: 6, Op: OpApplyBatch, Muts: []Mutation{
			{Op: MutUpsert, PK: []byte("a"), Record: []byte("ra")},
			{Op: MutInsert, PK: []byte("b"), Record: []byte("rb")},
			{Op: MutDelete, PK: []byte("c")},
		}},
		{ID: 7, Op: OpSecondaryQuery, Index: "user", Lo: []byte("l"), Hi: []byte("h"),
			Validation: 2, IndexOnly: true, Limit: 100},
		{ID: 8, Op: OpFilterScan, FilterLo: -5, FilterHi: 1 << 60, Limit: 7},
		{ID: 9, Op: OpStats},
		{ID: 10, Op: OpFlush},
	}
	for _, want := range reqs {
		enc := AppendRequest(nil, want)
		got, err := DecodeRequestInPlace(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", want.Op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round trip:\n got  %+v\n want %+v", want.Op, got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{ID: 1, Kind: KindOK},
		{ID: 2, Kind: KindValue, Found: true, Value: []byte("rec")},
		{ID: 3, Kind: KindValue, Found: false},
		{ID: 4, Kind: KindApplied, Applied: true},
		{ID: 5, Kind: KindBatch, AppliedBatch: []bool{true, false, true}},
		{ID: 6, Kind: KindQuery, Records: []Record{{PK: []byte("p"), Value: []byte("v")}}},
		{ID: 7, Kind: KindQuery, Keys: [][]byte{[]byte("k1"), []byte("k2")}},
		{ID: 8, Kind: KindScan, Records: []Record{{PK: []byte("p")}}},
		{ID: 9, Kind: KindStats, Stats: []byte(`{"Shards":1}`)},
		ErrorResponse(10, CodeUnknownIndex, `unknown secondary index "nope"`),
		{ID: 11, Kind: KindBatch, AppliedBatch: make([]bool, maxCarveBools+1)},
		{ID: 12, Kind: KindValue, Found: true, Value: bytes.Repeat([]byte("x"), maxCarveBytes)},
	}
	// A decoder answers as DecodeResponse does, and its answers, carved
	// from shared chunks, still read right after all the others.
	var d ResponseDecoder
	carved := make([]Response, len(resps))
	for i, want := range resps {
		enc := AppendResponse(nil, want)
		got, err := DecodeResponse(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round trip:\n got  %+v\n want %+v", want.Kind, got, want)
		}
		if carved[i], err = d.Decode(enc); err != nil {
			t.Fatalf("%s: decoder: %v", want.Kind, err)
		}
	}
	for i, want := range resps {
		if !reflect.DeepEqual(carved[i], want) {
			t.Fatalf("%s through a decoder:\n got  %+v\n want %+v", want.Kind, carved[i], want)
		}
	}
}

// TestDecodeResponseOneBacking: a decoded response owns its bytes (nothing
// aliases the frame, and an append to one field cannot reach the next) and
// pays for them once — one allocation for a GET reply's value or a batch
// report, one more than the record slice for a query answer of any length.
// Through a ResponseDecoder the reply and the report cost nothing (one
// chunk per many answers rounds to 0 over 100 decodes), and the query
// answer, over 2 KiB, still costs its own backing and record slice.
func TestDecodeResponseOneBacking(t *testing.T) {
	get := AppendResponse(nil, Response{ID: 7, Kind: KindValue, Found: true, Value: bytes.Repeat([]byte("v"), 500)})
	query := Response{ID: 8, Kind: KindQuery}
	for i := 0; i < 100; i++ {
		query.Records = append(query.Records, Record{PK: []byte{byte(i), 1, 2, 3}, Value: bytes.Repeat([]byte{byte(i)}, 300)})
	}
	for _, c := range []struct {
		name            string
		frame           []byte
		want, carveWant float64
	}{
		{"value reply", get, 1, 0},
		{"miss reply", AppendResponse(nil, Response{ID: 7, Kind: KindValue}), 0, 0},
		{"64-flag batch report", AppendResponse(nil, Response{ID: 9, Kind: KindBatch, AppliedBatch: make([]bool, 64)}), 1, 0},
		{"100-record answer", AppendResponse(nil, query), 2, 2},
	} {
		var d ResponseDecoder
		for _, dec := range []struct {
			name   string
			decode func([]byte) (Response, error)
			want   float64
		}{{"DecodeResponse", DecodeResponse, c.want}, {"ResponseDecoder", d.Decode, c.carveWant}} {
			if allocs := testing.AllocsPerRun(100, func() {
				if _, err := dec.decode(c.frame); err != nil {
					t.Fatal(err)
				}
			}); allocs != dec.want {
				t.Errorf("%s through %s: %v allocations per decode, want %v", c.name, dec.name, allocs, dec.want)
			}
		}
	}

	frame := AppendResponse(nil, query)
	got, err := DecodeResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xEE // the frame buffer is reused for the next read
	}
	_ = append(got.Records[0].PK, 0xEE)
	_ = append(got.Records[0].Value, 0xEE)
	if !reflect.DeepEqual(got, query) {
		t.Fatal("decoded records alias the frame or each other")
	}
}

// TestDecodeRequestInPlace checks that the decoder's byte fields really
// alias the input frame, capped so an append cannot reach the next field.
func TestDecodeRequestInPlace(t *testing.T) {
	reqs := []Request{
		{ID: 2, Op: OpGet, Key: []byte("pk-7")},
		{ID: 3, Op: OpUpsert, Key: []byte("pk"), Value: []byte("record")},
		{ID: 6, Op: OpApplyBatch, Muts: []Mutation{
			{Op: MutUpsert, PK: []byte("a"), Record: []byte("ra")},
			{Op: MutDelete, PK: []byte("c")},
		}},
		{ID: 7, Op: OpSecondaryQuery, Index: "user", Lo: []byte("l"), Hi: []byte("h")},
	}
	for _, want := range reqs {
		enc := AppendRequest(nil, want)
		got, err := DecodeRequestInPlace(enc)
		if err != nil {
			t.Fatalf("%s: decode in place: %v", want.Op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s in-place decode:\n got  %+v\n want %+v", want.Op, got, want)
		}
	}

	// Aliasing: scribbling on the frame must show through the decoded Key.
	enc := AppendRequest(nil, Request{ID: 1, Op: OpGet, Key: []byte("abc")})
	got, err := DecodeRequestInPlace(enc)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(enc, []byte("abc"))
	if off < 0 {
		t.Fatal("key bytes not found in encoding")
	}
	if cap(got.Key) != len(got.Key) {
		t.Fatalf("decoded key has cap %d > len %d: an append would overwrite the frame", cap(got.Key), len(got.Key))
	}
	enc[off] ^= 0xFF
	if string(got.Key) == "abc" {
		t.Fatal("in-place decode did not alias the frame")
	}

	// Corrupt input is an error, not a short alias.
	if _, err := DecodeRequestInPlace(enc[:3]); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("truncated in-place decode: err = %v, want ErrCorruptFrame", err)
	}
}

// TestOldFormatFramesStillDecode pins the request encoding byte for byte:
// an untagged frame decodes and a request encodes to exactly those bytes,
// while a frame that still carries the retired trailing tenant field (or
// an explicitly empty one) is refused as trailing garbage.
func TestOldFormatFramesStillDecode(t *testing.T) {
	// Request{ID: 7, Op: OpGet, Key: "pk"}: uvarint ID, op byte,
	// length-prefixed key, then eleven zero bytes for the unused
	// value/index/bounds/filter/validation/index-only/limit/mutation-count
	// fields.
	oldFrame := []byte{
		0x07,             // ID = 7
		0x02,             // Op = OpGet
		0x02, 0x70, 0x6b, // Key = "pk"
		0x00, 0x00, 0x00, 0x00, // Value, Index, Lo, Hi (empty)
		0x00, 0x00, // FilterLo, FilterHi
		0x00, 0x00, 0x00, // Validation, IndexOnly, Limit
		0x00, // no mutations
	}
	want := Request{ID: 7, Op: OpGet, Key: []byte("pk")}
	got, err := DecodeRequestInPlace(oldFrame)
	if err != nil {
		t.Fatalf("old-format frame rejected: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("old-format decode:\n got  %+v\n want %+v", got, want)
	}
	if enc := AppendRequest(nil, want); !bytes.Equal(enc, oldFrame) {
		t.Fatalf("encoding drifted from the old format:\n got  %x\n want %x", enc, oldFrame)
	}
	for name, tail := range map[string][]byte{
		"tagged":         {0x02, 't', '1'},
		"explicit empty": {0x00},
	} {
		frame := append(append([]byte(nil), oldFrame...), tail...)
		if _, err := DecodeRequestInPlace(frame); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("%s tenant field: err = %v, want ErrCorruptFrame", name, err)
		}
	}
}

func TestNewErrorCodesRoundTrip(t *testing.T) {
	for _, code := range []ErrCode{CodeOverloaded} {
		want := ErrorResponse(42, code, "busy")
		enc := AppendResponse(nil, want)
		got, err := DecodeResponse(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", code, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round trip:\n got  %+v\n want %+v", code, got, want)
		}
	}
	if CodeOverloaded.String() != "overloaded" {
		t.Fatalf("code string: %q", CodeOverloaded.String())
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	enc := AppendRequest(nil, Request{ID: 1, Op: OpPing})
	if _, err := DecodeRequestInPlace(append(enc, 0xAB)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("trailing byte: err = %v, want ErrCorruptFrame", err)
	}
	encR := AppendResponse(nil, Response{ID: 1, Kind: KindOK})
	if _, err := DecodeResponse(append(encR, 0)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("trailing byte: err = %v, want ErrCorruptFrame", err)
	}
}

func TestDecodeRejectsBadEnums(t *testing.T) {
	enc := AppendRequest(nil, Request{ID: 1, Op: OpPing})
	bad := append([]byte(nil), enc...)
	bad[1] = byte(opMax) // the op byte follows the single-byte ID uvarint
	if _, err := DecodeRequestInPlace(bad); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("bad op: err = %v, want ErrCorruptFrame", err)
	}
	if _, err := DecodeRequestInPlace(nil); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("empty payload: err = %v, want ErrCorruptFrame", err)
	}
}

// writeFrames frames the payloads into a buffer through a bufio.Writer of
// the given size.
func writeFrames(t *testing.T, size int, payloads ...[]byte) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriterSize(&buf, size)
	for _, p := range payloads {
		if err := WriteFrame(bw, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestFrameRoundTrip(t *testing.T) {
	// The writer's 16-byte buffer (bufio's minimum) leaves 3 bytes free
	// after the second frame, so the third length prefix needs a flush
	// first.
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{7}, 1000)}
	buf := writeFrames(t, 16, payloads...)
	var scratch []byte
	for _, want := range payloads {
		got, err := ReadFrame(buf, scratch, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame = %q, want %q", got, want)
		}
		scratch = got[:cap(got)]
	}
	if _, err := ReadFrame(buf, nil, 0); err != io.EOF {
		t.Fatalf("exhausted stream: err = %v, want io.EOF", err)
	}
}

func TestFrameLimits(t *testing.T) {
	buf := writeFrames(t, 4096, make([]byte, 100))
	if _, err := ReadFrame(buf, nil, 10); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: err = %v, want ErrFrameTooLarge", err)
	}
	if !errors.Is(ErrFrameTooLarge, ErrCorruptFrame) {
		t.Fatal("ErrFrameTooLarge must wrap ErrCorruptFrame")
	}
	// A frame truncated mid-payload is an unexpected EOF, not a clean end.
	buf = writeFrames(t, 4096, []byte("full payload"))
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-3])
	if _, err := ReadFrame(trunc, nil, 0); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestFrameIOAllocatesNothing pins the frame layer's steady state: the
// length prefix goes into the bufio.Writer's free space on the way out and
// into the reused buffer on the way in, so neither direction allocates.
func TestFrameIOAllocatesNothing(t *testing.T) {
	payload := AppendRequest(nil, Request{ID: 9, Op: OpGet, Key: []byte("pk-42")})
	bw := bufio.NewWriter(io.Discard)
	if n := testing.AllocsPerRun(100, func() {
		if err := WriteFrame(bw, payload); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("WriteFrame: %v allocations per frame, want 0", n)
	}

	stream := writeFrames(t, 4096, payload).Bytes()
	rd := bytes.NewReader(stream)
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(stream)
		frame, err := ReadFrame(rd, buf, 0)
		if err != nil || !bytes.Equal(frame, payload) {
			t.Fatalf("ReadFrame = %q, %v", frame, err)
		}
	}); n != 0 {
		t.Fatalf("ReadFrame: %v allocations per frame, want 0", n)
	}
}

// TestDecodeRequestInPlaceAllocations pins what decoding a request costs:
// nothing but an APPLY_BATCH's mutation list. Every byte field aliases the
// frame, and an index name decoded before comes from the intern table.
func TestDecodeRequestInPlaceAllocations(t *testing.T) {
	query := AppendRequest(nil, Request{ID: 3, Op: OpSecondaryQuery, Index: "user", Lo: []byte("a"), Hi: []byte("z"), Limit: 10})
	for _, c := range []struct {
		name  string
		frame []byte
		want  float64
	}{
		{"get", AppendRequest(nil, Request{ID: 1, Op: OpGet, Key: []byte("pk-42")}), 0},
		{"upsert", AppendRequest(nil, Request{ID: 2, Op: OpUpsert, Key: []byte("pk"), Value: []byte("record")}), 0},
		{"secondary query, index seen before", query, 0},
		{"apply batch", AppendRequest(nil, Request{ID: 4, Op: OpApplyBatch, Muts: []Mutation{
			{Op: MutUpsert, PK: []byte("a"), Record: []byte("ra")},
			{Op: MutDelete, PK: []byte("b")},
		}}), 1},
	} {
		if _, err := DecodeRequestInPlace(c.frame); err != nil { // interns the name
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := DecodeRequestInPlace(c.frame); err != nil {
				t.Fatal(err)
			}
		}); n != c.want {
			t.Errorf("%s: %v allocations per decode, want %v", c.name, n, c.want)
		}
	}
	// A batch decoded into a reused list of enough capacity: nothing.
	batch := AppendRequest(nil, Request{ID: 5, Op: OpApplyBatch, Muts: make([]Mutation, 64)})
	muts := make([]Mutation, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		if r, err := DecodeRequestInto(batch, muts); err != nil || len(r.Muts) != 64 {
			t.Fatalf("decode into a reused list: %d mutations, %v", len(r.Muts), err)
		}
	}); n != 0 {
		t.Errorf("apply batch into a reused list: %v allocations per decode, want 0", n)
	}
}

// TestIndexNameInterning: interned or not, a decoded index name is the
// name sent, and owns its bytes; the table stops growing at its bound.
func TestIndexNameInterning(t *testing.T) {
	var tab internTable
	for i := range 2 * maxInternedNames {
		name := []byte(fmt.Sprintf("index-%d", i))
		got := tab.intern(name)
		name[0] = 'X' // the frame buffer is reused
		if want := fmt.Sprintf("index-%d", i); got != want || tab.intern([]byte(want)) != want {
			t.Fatalf("intern = %q, want %q", got, want)
		}
	}
	if n := len(*tab.names.Load()); n != maxInternedNames {
		t.Errorf("table holds %d names, want its bound %d", n, maxInternedNames)
	}
	long := bytes.Repeat([]byte("n"), maxInternedName+1)
	if got := tab.intern(long); got != string(long) || len(*tab.names.Load()) != maxInternedNames {
		t.Errorf("an over-long name decoded as %d bytes or entered the table", len(got))
	}
}
