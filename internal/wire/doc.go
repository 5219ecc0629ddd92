// Package wire defines the binary protocol between lsmserver and its
// clients: length-prefixed frames carrying request/response messages with
// explicit request IDs, so a single TCP connection can pipeline many
// requests and receive their responses out of order.
//
// # Framing
//
// Every message travels in a frame: a 4-byte big-endian payload length
// followed by the payload. WriteFrame and ReadFrame implement the frame
// layer; ReadFrame caps the accepted payload (MaxFrame by default) so a
// corrupt or hostile peer cannot force an unbounded allocation. Neither
// allocates in steady state: WriteFrame writes the length prefix into the
// caller's bufio.Writer, and ReadFrame reads it into the caller's reused
// buffer (TestFrameIOAllocatesNothing).
//
// # Messages
//
// A Request is an operation (Op) plus its arguments; a Response is a
// result shape (Kind) plus its payload. Both carry the request ID that
// correlates them. Field values use uvarint/varint integers and
// uvarint-length-prefixed byte strings; every field is encoded
// unconditionally, so any message round-trips bit-exactly regardless of
// which union fields its op actually reads.
//
// Failures are typed: a KindError response carries an ErrCode (unknown
// index, store closed, shutting down, bad request, internal) and a
// message, letting clients map server-side failures back onto the
// lsmstore sentinel errors.
//
// A client decodes a connection's responses through one ResponseDecoder,
// which carves small answers from pointer-free chunks instead of
// allocating per answer; DecodeResponse gives every answer a backing of
// its own.
//
// # Robustness
//
// DecodeRequestInPlace and DecodeResponse never panic on corrupt input. Every
// decoding failure — truncation, bad varint, out-of-range enum, trailing
// garbage, list counts exceeding the frame — wraps ErrCorruptFrame, which
// the fuzzers in this package enforce; a ResponseDecoder answers as
// DecodeResponse does, corrupt input included.
package wire
