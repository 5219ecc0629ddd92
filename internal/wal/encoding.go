package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary record encoding, used to persist the log onto a device and to
// measure log volume. Layout:
//
//	totalLen u32 | lsn varint | type u8 | flags u8 | ts varint |
//	keyLen uvarint | key | valLen uvarint | value
//
// totalLen counts the bytes after itself. The decoder accepts exactly what
// the encoder produces — a known type, no unknown flag, no byte left over
// inside totalLen — so a segment written under another layout ends at its
// first record instead of decoding as something else (lsmstore's layout
// file carries the format number that refuses such a directory outright).
const flagUpdateBit = 1 << 0

// ErrCorruptRecord reports a malformed binary record.
var ErrCorruptRecord = errors.New("wal: corrupt record")

// AppendRecord appends the binary encoding of r to dst. The length prefix
// is backfilled after the body is encoded in place, so encoding a record
// costs no allocation beyond growing dst.
func AppendRecord(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // total length, backfilled below
	dst = binary.AppendVarint(dst, r.LSN)
	var flags byte
	if r.UpdateBit {
		flags |= flagUpdateBit
	}
	dst = append(dst, byte(r.Type), flags)
	dst = binary.AppendVarint(dst, r.TS)
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Value)))
	dst = append(dst, r.Value...)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// DecodeRecord decodes one record from buf, returning it and the remaining
// bytes.
func DecodeRecord(buf []byte) (Record, []byte, error) {
	if len(buf) < 4 {
		return Record{}, nil, ErrCorruptRecord
	}
	total := int(binary.BigEndian.Uint32(buf))
	buf = buf[4:]
	if len(buf) < total {
		return Record{}, nil, fmt.Errorf("%w: truncated body", ErrCorruptRecord)
	}
	body, rest := buf[:total], buf[total:]

	var r Record
	var n int
	r.LSN, n = binary.Varint(body)
	if n <= 0 {
		return Record{}, nil, ErrCorruptRecord
	}
	body = body[n:]
	if len(body) < 2 {
		return Record{}, nil, ErrCorruptRecord
	}
	r.Type = RecordType(body[0])
	flags := body[1]
	if r.Type < RecInsert || r.Type > RecUpsert || flags&^flagUpdateBit != 0 {
		return Record{}, nil, fmt.Errorf("%w: type %d flags %#x", ErrCorruptRecord, r.Type, flags)
	}
	r.UpdateBit = flags&flagUpdateBit != 0
	body = body[2:]
	r.TS, n = binary.Varint(body)
	if n <= 0 {
		return Record{}, nil, ErrCorruptRecord
	}
	body = body[n:]

	readBytes := func() ([]byte, error) {
		l, n := binary.Uvarint(body)
		if n <= 0 || uint64(len(body)-n) < l {
			return nil, ErrCorruptRecord
		}
		out := body[n : n+int(l)]
		body = body[n+int(l):]
		if l == 0 {
			out = nil
		}
		return out, nil
	}
	var err error
	if r.Key, err = readBytes(); err != nil {
		return Record{}, nil, err
	}
	if r.Value, err = readBytes(); err != nil {
		return Record{}, nil, err
	}
	if len(body) != 0 {
		return Record{}, nil, fmt.Errorf("%w: %d bytes past the value", ErrCorruptRecord, len(body))
	}
	return r, rest, nil
}
