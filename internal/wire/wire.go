package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/kv"
)

// MaxFrame is the default cap on a frame payload, shared by server and
// client. It bounds the allocation a single peer message can force.
const MaxFrame = 64 << 20

// frameHeaderLen is the byte length of the frame length prefix.
const frameHeaderLen = 4

// ErrCorruptFrame reports a frame payload that does not decode as a valid
// message. Every decoding error wraps it, so transports can distinguish a
// broken peer from an I/O failure.
var ErrCorruptFrame = errors.New("wire: corrupt frame")

// ErrFrameTooLarge reports a frame whose declared length exceeds the
// reader's cap. It wraps ErrCorruptFrame: an oversized declaration is
// indistinguishable from garbage in the length prefix.
var ErrFrameTooLarge = fmt.Errorf("%w: frame too large", ErrCorruptFrame)

// Op identifies a request operation.
type Op uint8

// Request operations.
const (
	OpPing Op = 1 + iota
	OpGet
	OpUpsert
	OpInsert
	OpDelete
	OpApplyBatch
	OpSecondaryQuery
	OpFilterScan
	OpStats
	OpFlush
	opMax // sentinel: first invalid op
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpGet:
		return "get"
	case OpUpsert:
		return "upsert"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpApplyBatch:
		return "apply-batch"
	case OpSecondaryQuery:
		return "secondary-query"
	case OpFilterScan:
		return "filter-scan"
	case OpStats:
		return "stats"
	case OpFlush:
		return "flush"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Kind identifies a response shape.
type Kind uint8

// Response kinds.
const (
	// KindOK acknowledges an operation with no payload (ping, upsert,
	// flush).
	KindOK Kind = 1 + iota
	// KindValue answers a Get: Found and, when found, Value.
	KindValue
	// KindApplied answers an Insert or Delete: Applied tells whether the
	// mutation took effect.
	KindApplied
	// KindBatch answers an ApplyBatch: AppliedBatch holds one flag per
	// mutation, in request order.
	KindBatch
	// KindQuery answers a SecondaryQuery: Records, or Keys when the
	// request was index-only.
	KindQuery
	// KindScan answers a FilterScan: Records in primary-key order.
	KindScan
	// KindStats answers a Stats request: Stats holds the JSON-encoded
	// lsmstore.Stats snapshot.
	KindStats
	// KindError reports a typed failure: Code and Msg.
	KindError
	kindMax // sentinel: first invalid kind
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindOK:
		return "ok"
	case KindValue:
		return "value"
	case KindApplied:
		return "applied"
	case KindBatch:
		return "batch"
	case KindQuery:
		return "query"
	case KindScan:
		return "scan"
	case KindStats:
		return "stats"
	case KindError:
		return "error"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrCode classifies a KindError response.
type ErrCode uint16

// Error codes.
const (
	// CodeInternal is an unclassified server-side failure.
	CodeInternal ErrCode = iota
	// CodeBadRequest reports a request the server refused to execute
	// (unknown op, out-of-range validation method).
	CodeBadRequest
	// CodeUnknownIndex reports a query against an undeclared secondary
	// index.
	CodeUnknownIndex
	// CodeClosed reports an operation on a store that has been closed.
	CodeClosed
	// CodeShuttingDown reports a request received while the server drains.
	CodeShuttingDown
	// CodeOverloaded reports a request shed by admission control: the
	// server is over capacity and the request never reached the engine.
	// Clients should back off (capped exponential, full jitter) and retry.
	CodeOverloaded
)

// String implements fmt.Stringer.
func (c ErrCode) String() string {
	switch c {
	case CodeInternal:
		return "internal"
	case CodeBadRequest:
		return "bad-request"
	case CodeUnknownIndex:
		return "unknown-index"
	case CodeClosed:
		return "closed"
	case CodeShuttingDown:
		return "shutting-down"
	case CodeOverloaded:
		return "overloaded"
	}
	return fmt.Sprintf("code(%d)", uint16(c))
}

// MutOp, Mutation and Record are the engine's own types (internal/kv): a
// decoded batch and a query answer pass between wire, server, store and
// client without conversion. MutOp's values are the wire encoding.
type (
	MutOp    = kv.Op
	Mutation = kv.Mutation
	Record   = kv.Record
)

// Batched operations.
const (
	MutUpsert = kv.OpUpsert
	MutInsert = kv.OpInsert
	MutDelete = kv.OpDelete
	mutMax    = MutDelete + 1 // sentinel: first invalid mutation op
)

// Request is one client request. ID correlates the response on a
// pipelined connection: responses may return in any order. The value
// fields form a union — each op reads only its own — but every field is
// encoded unconditionally so any Request round-trips bit-exactly.
type Request struct {
	ID uint64
	Op Op

	Key   []byte // Get, Upsert, Insert, Delete: the primary key
	Value []byte // Upsert, Insert: the record

	Index  string // SecondaryQuery: index name
	Lo, Hi []byte // SecondaryQuery: inclusive secondary-key bounds

	FilterLo, FilterHi int64 // FilterScan: inclusive filter-key bounds

	Validation uint8 // SecondaryQuery: lsmstore validation method ordinal
	IndexOnly  bool  // SecondaryQuery: keys only, no record fetch
	Limit      int64 // SecondaryQuery, FilterScan: result cap (0 = all)

	Muts []Mutation // ApplyBatch
}

// Response is one server response. Like Request, the payload fields are a
// union keyed by Kind but all encode unconditionally.
//
// The byte strings of a decoded Response (Value, every record's PK and
// Value, Keys, Stats) are capacity-limited sub-slices of one backing
// array. DecodeResponse allocates that array for the answer alone, so
// keeping any one string keeps the whole answer's bytes alive. A
// ResponseDecoder carves the array of an answer of at most 2 KiB from its
// 16 KiB chunk, and a batch report from its 4 KiB flag chunk: a kept value
// then keeps alive at most that one chunk, shared with other answers, and
// an answer over 2 KiB only its own bytes. Copy what must outlive the rest.
type Response struct {
	ID   uint64
	Kind Kind

	Found   bool   // KindValue
	Value   []byte // KindValue
	Applied bool   // KindApplied

	Records      []Record // KindQuery, KindScan
	Keys         [][]byte // KindQuery (index-only)
	AppliedBatch []bool   // KindBatch

	Stats []byte // KindStats: JSON-encoded lsmstore.Stats

	Code ErrCode // KindError
	Msg  string  // KindError
}

// ErrorResponse builds a KindError response for a request ID.
func ErrorResponse(id uint64, code ErrCode, msg string) Response {
	return Response{ID: id, Kind: KindError, Code: code, Msg: msg}
}

// Err converts a KindError response into an error (nil for other kinds).
func (r *Response) Err() error {
	if r.Kind != KindError {
		return nil
	}
	return fmt.Errorf("wire: server error %s: %s", r.Code, r.Msg)
}

// WriteFrame writes one frame into w: a 4-byte big-endian payload length
// followed by the payload. The length goes straight into w's free space
// (flushing first if fewer than 4 bytes are free), so a frame costs no
// allocation; the caller flushes w. It refuses payloads beyond MaxFrame so
// a server bug cannot emit a frame no client will accept.
func WriteFrame(w *bufio.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	if w.Available() < frameHeaderLen {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	if _, err := w.Write(binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(payload)))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame payload, reusing buf when it is large enough.
// The length prefix is read into buf's first bytes too, so a buf with at
// least 4 bytes of capacity makes the read allocation-free. max caps the
// accepted payload length (<= 0 means MaxFrame). A clean EOF on the length
// prefix returns io.EOF; EOF mid-frame returns io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte, max int) ([]byte, error) {
	if max <= 0 {
		max = MaxFrame
	}
	if cap(buf) < frameHeaderLen {
		buf = make([]byte, frameHeaderLen)
	}
	hdr := buf[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > max {
		return nil, ErrFrameTooLarge
	}
	if n > cap(buf) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// --- field encoding primitives -----------------------------------------
//
// Fields use uvarint/varint integers and uvarint-length-prefixed byte
// strings. Zero-length byte fields decode as nil (the same normalization
// as the WAL encoding), so encode(decode(x)) is byte-stable.

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint", ErrCorruptFrame)
	}
	return v, b[n:], nil
}

func takeVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrCorruptFrame)
	}
	return v, b[n:], nil
}

func takeBool(b []byte) (bool, []byte, error) {
	if len(b) < 1 {
		return false, nil, fmt.Errorf("%w: missing bool", ErrCorruptFrame)
	}
	switch b[0] {
	case 0:
		return false, b[1:], nil
	case 1:
		return true, b[1:], nil
	}
	return false, nil, fmt.Errorf("%w: bool byte %d", ErrCorruptFrame, b[0])
}

func takeByte(b []byte) (byte, []byte, error) {
	if len(b) < 1 {
		return 0, nil, fmt.Errorf("%w: missing byte", ErrCorruptFrame)
	}
	return b[0], b[1:], nil
}

// takeBytesRef reads one byte string without copying it: the returned slice
// aliases b (capped so appends cannot scribble over the following fields).
func takeBytesRef(b []byte) ([]byte, []byte, error) {
	n, rest, err := takeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: byte string of %d bytes with %d remaining", ErrCorruptFrame, n, len(rest))
	}
	if n == 0 {
		return nil, rest, nil
	}
	return rest[:n:n], rest[n:], nil
}

func takeString(b []byte) (string, []byte, error) {
	v, rest, err := takeBytesRef(b)
	return string(v), rest, err
}

// takeIndexName is takeString for a request's index name, which comes from
// indexNames: a name decoded before costs no allocation.
func takeIndexName(b []byte) (string, []byte, error) {
	v, rest, err := takeBytesRef(b)
	if err != nil || len(v) == 0 {
		return "", rest, err
	}
	return indexNames.intern(v), rest, nil
}

// internTable interns the few index names a server's requests carry. It is
// read-mostly: a lookup loads the current map and takes no lock, and a new
// name replaces the map with a copy holding it. It holds at most
// maxInternedNames names of at most maxInternedName bytes; any other name
// is copied per request, so a peer sending made-up names bounds what it
// pins.
type internTable struct {
	names atomic.Pointer[map[string]string]
	mu    sync.Mutex // serializes the copies
}

const (
	maxInternedNames = 64
	maxInternedName  = 64
)

var indexNames internTable

// intern returns b as a string, the table's copy when it has one.
func (t *internTable) intern(b []byte) string {
	if m := t.names.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok {
			return s
		}
	}
	s := string(b)
	if len(s) > maxInternedName {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var old map[string]string
	if m := t.names.Load(); m != nil {
		old = *m
	}
	if v, ok := old[s]; ok {
		return v // interned meanwhile
	}
	if len(old) < maxInternedNames {
		m := make(map[string]string, len(old)+1)
		maps.Copy(m, old)
		m[s] = s
		t.names.Store(&m)
	}
	return s
}

// backing holds the byte strings of one decoded response in a single
// buffer, so a response costs at most one allocation for its bytes however
// many records it carries. The buffer is taken at the first non-empty
// string, sized by the bytes still undecoded then — an upper bound on
// everything that follows, so it never grows and earlier sub-slices stay
// valid. It is carved from the decoder's byte chunk when the bound allows
// (carved is then set), else allocated at exactly the bound.
type backing struct {
	buf    []byte
	dec    *ResponseDecoder // nil: always allocate
	carved bool
}

// take is takeBytesRef with the string copied into the backing buffer.
func (bk *backing) take(b []byte) ([]byte, []byte, error) {
	v, rest, err := takeBytesRef(b)
	if err != nil || len(v) == 0 {
		return nil, rest, err
	}
	if bk.buf == nil {
		if n := len(v) + len(rest); bk.dec != nil && n <= maxCarveBytes {
			bk.buf, bk.carved = carve(&bk.dec.bytes, byteChunk, n), true
		} else {
			bk.buf = make([]byte, 0, n)
		}
	}
	n := len(bk.buf)
	bk.buf = append(bk.buf, v...)
	return bk.buf[n:len(bk.buf):len(bk.buf)], rest, nil
}

// Chunk sizes of a ResponseDecoder. An answer carves at most an eighth of
// a chunk, so a chunk strands less than an eighth of itself at its end.
const (
	byteChunk     = 16 << 10
	boolChunk     = 4 << 10
	maxCarveBytes = byteChunk / 8
	maxCarveBools = boolChunk / 8
)

// ResponseDecoder decodes one connection's responses, carving the bytes of
// small answers from chunks it owns instead of allocating per answer. A
// response whose byte strings need at most 2 KiB takes them from the
// current 16 KiB byte chunk, and a batch report of at most 512 flags from
// the current 4 KiB flag chunk; larger answers get their own exact-size
// backing, as DecodeResponse gives every answer. Chunks hold no pointers,
// and nothing that does (a query's Records and Keys) is shared between
// answers. Every carve is capacity-limited, so an append to a value copies
// it instead of writing into its neighbour. A chunk is never reset or
// written again where it was handed out: when it is full the decoder
// allocates a new one, and the old one is freed once its last value is
// dropped. So a kept value keeps alive at most one chunk, or only its own
// answer's bytes when the answer is over 2 KiB.
//
// The zero value is ready to use. A ResponseDecoder is not safe for
// concurrent use: a connection's reader is its only user.
type ResponseDecoder struct {
	bytes []byte // carved up to len
	bools []bool // carved up to len
}

// carve returns an empty slice of capacity n from chunk's free tail,
// replacing *chunk with a fresh one of size elements when fewer than n are
// free. The caller extends *chunk over what it keeps.
func carve[T any](chunk *[]T, size, n int) []T {
	if cap(*chunk)-len(*chunk) < n {
		*chunk = make([]T, 0, size)
	}
	l := len(*chunk)
	return (*chunk)[l : l : l+n]
}

// Decode is DecodeResponse with small answers carved from the decoder's
// chunks. Nothing in the result aliases frame.
func (d *ResponseDecoder) Decode(frame []byte) (Response, error) {
	return decodeResponse(frame, d)
}

// takeCount reads a list length and sanity-checks it against the bytes
// remaining: every element of any list costs at least one byte, so a count
// above the remainder is corruption, not a huge allocation.
func takeCount(b []byte) (int, []byte, error) {
	n, rest, err := takeUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(rest)) {
		return 0, nil, fmt.Errorf("%w: list of %d elements with %d bytes remaining", ErrCorruptFrame, n, len(rest))
	}
	return int(n), rest, nil
}

// --- request encoding ---------------------------------------------------

// AppendRequest appends the encoding of r to buf and returns the result.
// The encoding is a frame payload: pair it with WriteFrame.
func AppendRequest(buf []byte, r Request) []byte {
	buf = appendUvarint(buf, r.ID)
	buf = append(buf, byte(r.Op))
	buf = appendBytes(buf, r.Key)
	buf = appendBytes(buf, r.Value)
	buf = appendString(buf, r.Index)
	buf = appendBytes(buf, r.Lo)
	buf = appendBytes(buf, r.Hi)
	buf = appendVarint(buf, r.FilterLo)
	buf = appendVarint(buf, r.FilterHi)
	buf = append(buf, r.Validation)
	buf = appendBool(buf, r.IndexOnly)
	buf = appendVarint(buf, r.Limit)
	buf = appendUvarint(buf, uint64(len(r.Muts)))
	for _, m := range r.Muts {
		buf = append(buf, byte(m.Op))
		buf = appendBytes(buf, m.PK)
		buf = appendBytes(buf, m.Record)
	}
	return buf
}

// DecodeRequestInPlace decodes a frame payload produced by AppendRequest.
// It never panics on corrupt input: every failure wraps ErrCorruptFrame,
// including trailing garbage after a well-formed request. Nothing is
// copied: every byte field of the result (Key, Value, Lo, Hi, mutation PKs
// and Records) aliases frame, and the index name is interned (indexNames). The caller must keep frame alive and
// unmodified for as long as those fields are in use, and must copy any
// field it hands to code that retains it. The server copies nothing: it
// hands every field to the engine as it is, because the engine copies what
// it keeps (core.Dataset.Apply's contract) and the request's buffer
// outlives the call.
func DecodeRequestInPlace(frame []byte) (Request, error) { return DecodeRequestInto(frame, nil) }

// DecodeRequestInto is DecodeRequestInPlace with the mutation list
// supplied: an APPLY_BATCH's n mutations are decoded into muts[:n], every
// entry overwritten, when muts has the capacity, and into a new list when
// it has not. A request without mutations has nil Muts, as from
// DecodeRequestInPlace. The server keeps one list with each pooled receive
// buffer, so a batch in steady state decodes without allocating.
func DecodeRequestInto(frame []byte, muts []Mutation) (Request, error) {
	var (
		r   Request
		err error
		b   = frame
		op  byte
	)
	if r.ID, b, err = takeUvarint(b); err != nil {
		return Request{}, err
	}
	if op, b, err = takeByte(b); err != nil {
		return Request{}, err
	}
	r.Op = Op(op)
	if r.Op == 0 || r.Op >= opMax {
		return Request{}, fmt.Errorf("%w: unknown op %d", ErrCorruptFrame, op)
	}
	if r.Key, b, err = takeBytesRef(b); err != nil {
		return Request{}, err
	}
	if r.Value, b, err = takeBytesRef(b); err != nil {
		return Request{}, err
	}
	if r.Index, b, err = takeIndexName(b); err != nil {
		return Request{}, err
	}
	if r.Lo, b, err = takeBytesRef(b); err != nil {
		return Request{}, err
	}
	if r.Hi, b, err = takeBytesRef(b); err != nil {
		return Request{}, err
	}
	if r.FilterLo, b, err = takeVarint(b); err != nil {
		return Request{}, err
	}
	if r.FilterHi, b, err = takeVarint(b); err != nil {
		return Request{}, err
	}
	if r.Validation, b, err = takeByte(b); err != nil {
		return Request{}, err
	}
	if r.IndexOnly, b, err = takeBool(b); err != nil {
		return Request{}, err
	}
	if r.Limit, b, err = takeVarint(b); err != nil {
		return Request{}, err
	}
	var n int
	if n, b, err = takeCount(b); err != nil {
		return Request{}, err
	}
	if n > 0 {
		if cap(muts) < n {
			muts = make([]Mutation, n)
		}
		r.Muts = muts[:n]
		for i := range r.Muts {
			var mo byte
			if mo, b, err = takeByte(b); err != nil {
				return Request{}, err
			}
			if MutOp(mo) >= mutMax {
				return Request{}, fmt.Errorf("%w: unknown mutation op %d", ErrCorruptFrame, mo)
			}
			r.Muts[i].Op = MutOp(mo)
			if r.Muts[i].PK, b, err = takeBytesRef(b); err != nil {
				return Request{}, err
			}
			if r.Muts[i].Record, b, err = takeBytesRef(b); err != nil {
				return Request{}, err
			}
		}
	}
	if len(b) != 0 {
		return Request{}, fmt.Errorf("%w: %d trailing bytes", ErrCorruptFrame, len(b))
	}
	return r, nil
}

// --- response encoding --------------------------------------------------

// AppendResponse appends the encoding of r to buf and returns the result.
func AppendResponse(buf []byte, r Response) []byte {
	buf = appendUvarint(buf, r.ID)
	buf = append(buf, byte(r.Kind))
	buf = appendBool(buf, r.Found)
	buf = appendBytes(buf, r.Value)
	buf = appendBool(buf, r.Applied)
	buf = appendUvarint(buf, uint64(len(r.Records)))
	for _, rec := range r.Records {
		buf = appendBytes(buf, rec.PK)
		buf = appendBytes(buf, rec.Value)
	}
	buf = appendUvarint(buf, uint64(len(r.Keys)))
	for _, k := range r.Keys {
		buf = appendBytes(buf, k)
	}
	buf = appendUvarint(buf, uint64(len(r.AppliedBatch)))
	for _, ok := range r.AppliedBatch {
		buf = appendBool(buf, ok)
	}
	buf = appendBytes(buf, r.Stats)
	buf = appendUvarint(buf, uint64(r.Code))
	buf = appendString(buf, r.Msg)
	return buf
}

// DecodeResponse decodes a frame payload produced by AppendResponse. Like
// DecodeRequestInPlace it never panics and wraps every failure in
// ErrCorruptFrame. Nothing in the result aliases frame: its byte strings
// share one exact-size backing, allocated for this answer alone.
func DecodeResponse(frame []byte) (Response, error) { return decodeResponse(frame, nil) }

// decodeResponse decodes frame, carving from d's chunks when d is not nil.
func decodeResponse(frame []byte, d *ResponseDecoder) (Response, error) {
	var (
		r    Response
		err  error
		b    = frame
		kind byte
		bk   = backing{dec: d}
	)
	if r.ID, b, err = takeUvarint(b); err != nil {
		return Response{}, err
	}
	if kind, b, err = takeByte(b); err != nil {
		return Response{}, err
	}
	r.Kind = Kind(kind)
	if r.Kind == 0 || r.Kind >= kindMax {
		return Response{}, fmt.Errorf("%w: unknown kind %d", ErrCorruptFrame, kind)
	}
	if r.Found, b, err = takeBool(b); err != nil {
		return Response{}, err
	}
	if r.Value, b, err = bk.take(b); err != nil {
		return Response{}, err
	}
	if r.Applied, b, err = takeBool(b); err != nil {
		return Response{}, err
	}
	var n int
	if n, b, err = takeCount(b); err != nil {
		return Response{}, err
	}
	if n > 0 {
		r.Records = make([]Record, n)
		for i := range r.Records {
			if r.Records[i].PK, b, err = bk.take(b); err != nil {
				return Response{}, err
			}
			if r.Records[i].Value, b, err = bk.take(b); err != nil {
				return Response{}, err
			}
		}
	}
	if n, b, err = takeCount(b); err != nil {
		return Response{}, err
	}
	if n > 0 {
		r.Keys = make([][]byte, n)
		for i := range r.Keys {
			if r.Keys[i], b, err = bk.take(b); err != nil {
				return Response{}, err
			}
		}
	}
	if n, b, err = takeCount(b); err != nil {
		return Response{}, err
	}
	if n > 0 {
		if d != nil && n <= maxCarveBools {
			r.AppliedBatch = carve(&d.bools, boolChunk, n)[:n]
			d.bools = d.bools[:len(d.bools)+n]
		} else {
			r.AppliedBatch = make([]bool, n)
		}
		for i := range r.AppliedBatch {
			if r.AppliedBatch[i], b, err = takeBool(b); err != nil {
				return Response{}, err
			}
		}
	}
	if r.Stats, b, err = bk.take(b); err != nil {
		return Response{}, err
	}
	var code uint64
	if code, b, err = takeUvarint(b); err != nil {
		return Response{}, err
	}
	if code > 0xffff {
		return Response{}, fmt.Errorf("%w: error code %d out of range", ErrCorruptFrame, code)
	}
	r.Code = ErrCode(code)
	if r.Msg, b, err = takeString(b); err != nil {
		return Response{}, err
	}
	if len(b) != 0 {
		return Response{}, fmt.Errorf("%w: %d trailing bytes", ErrCorruptFrame, len(b))
	}
	if bk.carved { // keep what the answer used; the rest of the bound stays free
		d.bytes = d.bytes[:len(d.bytes)+len(bk.buf)]
	}
	return r, nil
}
