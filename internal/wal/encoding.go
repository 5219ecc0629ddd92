package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary record encoding, used to persist the log onto a device and to
// measure log volume. Layout (all varint/length-prefixed):
//
//	totalLen u32 | lsn varint | txn varint | type u8 | flags u8 |
//	ts varint | indexLen uvarint | index | keyLen uvarint | key |
//	valLen uvarint | value | prevLen uvarint | prev
const (
	flagUpdateBit = 1 << 0
	flagHadPrev   = 1 << 1
)

// ErrCorruptRecord reports a malformed binary record.
var ErrCorruptRecord = errors.New("wal: corrupt record")

// AppendRecord appends the binary encoding of r to dst. The length prefix
// is backfilled after the body is encoded in place, so encoding a record
// costs no allocation beyond growing dst (the commit hot path reuses a
// pooled dst).
func AppendRecord(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // total length, backfilled below
	dst = binary.AppendVarint(dst, r.LSN)
	dst = binary.AppendVarint(dst, r.TxnID)
	dst = append(dst, byte(r.Type))
	var flags byte
	if r.UpdateBit {
		flags |= flagUpdateBit
	}
	if r.HadPrev {
		flags |= flagHadPrev
	}
	dst = append(dst, flags)
	dst = binary.AppendVarint(dst, r.TS)
	dst = binary.AppendUvarint(dst, uint64(len(r.Index)))
	dst = append(dst, r.Index...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Value)))
	dst = append(dst, r.Value...)
	dst = binary.AppendUvarint(dst, uint64(len(r.PrevValue)))
	dst = append(dst, r.PrevValue...)
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
	r.TxnID, n = binary.Varint(body)
	if n <= 0 {
		return Record{}, nil, ErrCorruptRecord
	}
	body = body[n:]
	if len(body) < 2 {
		return Record{}, nil, ErrCorruptRecord
	}
	r.Type = RecordType(body[0])
	flags := body[1]
	r.UpdateBit = flags&flagUpdateBit != 0
	r.HadPrev = flags&flagHadPrev != 0
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
		return out, nil
	}
	idx, err := readBytes()
	if err != nil {
		return Record{}, nil, err
	}
	r.Index = string(idx)
	if r.Key, err = readBytes(); err != nil {
		return Record{}, nil, err
	}
	if r.Value, err = readBytes(); err != nil {
		return Record{}, nil, err
	}
	if r.PrevValue, err = readBytes(); err != nil {
		return Record{}, nil, err
	}
	if len(r.Key) == 0 {
		r.Key = nil
	}
	if len(r.Value) == 0 {
		r.Value = nil
	}
	if len(r.PrevValue) == 0 {
		r.PrevValue = nil
	}
	return r, rest, nil
}
