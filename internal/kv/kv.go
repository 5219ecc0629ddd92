// Package kv defines the entry model shared by every index in the storage
// engine: a key/value pair stamped with an ingestion timestamp and an
// anti-matter flag, plus the canonical byte encodings used inside B+-tree
// pages and write-ahead-log records. It also holds the one definition of
// the caller-facing Record and Mutation, which lsmstore and internal/wire
// alias.
package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Entry is a single index entry. Keys order entries inside a component;
// TS is the node-local ingestion timestamp used by the Validation strategy;
// Anti marks an anti-matter (delete) entry.
type Entry struct {
	Key   []byte
	Value []byte
	TS    int64
	Anti  bool
}

// Record is one (primary key, record) pair of a query or scan answer, in
// the shape callers see it: the engine's router, the wire protocol and the
// client all pass this one type.
type Record struct {
	PK    []byte
	Value []byte
}

// Op is a batched mutation's operation. The values are the wire encoding.
type Op uint8

// Batched operations.
const (
	// OpUpsert inserts or replaces the record under PK.
	OpUpsert Op = iota
	// OpInsert adds the record only when PK is absent (a duplicate is
	// counted as ignored).
	OpInsert
	// OpDelete removes the record under PK (a missing key is ignored).
	OpDelete
)

// Mutation is one write in a batch, embedded or over the wire.
type Mutation struct {
	Op     Op
	PK     []byte
	Record []byte // unused by OpDelete
}

// Compare orders keys with bytes.Compare semantics.
func Compare(a, b []byte) int { return bytes.Compare(a, b) }

// Size returns the approximate in-memory footprint of the entry in bytes,
// used for memory-component budget accounting.
func (e Entry) Size() int { return len(e.Key) + len(e.Value) + 16 }

// Clone deep-copies the entry so callers may retain it past iterator reuse.
func (e Entry) Clone() Entry {
	c := Entry{TS: e.TS, Anti: e.Anti}
	c.Key = append([]byte(nil), e.Key...)
	c.Value = append([]byte(nil), e.Value...)
	return c
}

// Arena copies byte strings into large chunks it allocates, so the keys and
// records of one query cost an allocation per chunk instead of one each.
// A chunk is never reallocated: slices returned earlier stay valid, and
// they all keep their chunk alive, until Reset hands the last chunk out
// again. The zero value is ready to use; an Arena is not safe for
// concurrent use.
type Arena struct{ chunk []byte }

// maxChunk is the largest chunk Copy grows to, and the largest Reset keeps.
const maxChunk = 256 << 10

// Reset empties the arena for reuse. It keeps its last chunk, the largest
// (unless it is over maxChunk, which only a single oversized string makes),
// so an arena that answers queries of one size stops allocating; every
// slice Copy returned before is invalid from here on.
func (a *Arena) Reset() {
	if cap(a.chunk) > maxChunk {
		a.chunk = nil
	}
	a.chunk = a.chunk[:0]
}

// Copy returns a copy of b (nil when b is empty, as Entry.Clone does).
func (a *Arena) Copy(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if len(b) > cap(a.chunk)-len(a.chunk) {
		// Chunks double from 4 KiB to maxChunk, so a small answer stays
		// small and a large one costs O(log n) allocations.
		a.chunk = make([]byte, 0, max(len(b), min(2*cap(a.chunk), maxChunk), 4<<10))
	}
	n := len(a.chunk)
	a.chunk = append(a.chunk, b...)
	return a.chunk[n:len(a.chunk):len(a.chunk)]
}

// CloneEntry deep-copies e into the arena.
func (a *Arena) CloneEntry(e Entry) Entry {
	e.Key, e.Value = a.Copy(e.Key), a.Copy(e.Value)
	return e
}

func (e Entry) String() string {
	anti := ""
	if e.Anti {
		anti = "-"
	}
	return fmt.Sprintf("%s%q@%d=%q", anti, e.Key, e.TS, e.Value)
}

const antiFlag = 0x01

// AppendPayload encodes everything but the key (flags, timestamp, value)
// and appends it to dst. The key is stored separately by the B+-tree.
func AppendPayload(dst []byte, e Entry) []byte {
	var flags byte
	if e.Anti {
		flags |= antiFlag
	}
	dst = append(dst, flags)
	dst = binary.AppendVarint(dst, e.TS)
	dst = binary.AppendUvarint(dst, uint64(len(e.Value)))
	dst = append(dst, e.Value...)
	return dst
}

// ErrCorrupt reports a malformed payload encoding.
var ErrCorrupt = errors.New("kv: corrupt entry payload")

// DecodePayload decodes a payload produced by AppendPayload into e
// (the key must be filled in by the caller). The returned slice aliases buf.
func DecodePayload(buf []byte, key []byte) (Entry, error) {
	if len(buf) < 1 {
		return Entry{}, ErrCorrupt
	}
	flags := buf[0]
	buf = buf[1:]
	ts, n := binary.Varint(buf)
	if n <= 0 {
		return Entry{}, ErrCorrupt
	}
	buf = buf[n:]
	vlen, n := binary.Uvarint(buf)
	if n <= 0 {
		return Entry{}, ErrCorrupt
	}
	buf = buf[n:]
	if uint64(len(buf)) < vlen {
		return Entry{}, ErrCorrupt
	}
	return Entry{
		Key:   key,
		Value: buf[:vlen],
		TS:    ts,
		Anti:  flags&antiFlag != 0,
	}, nil
}

// EncodeUint64 encodes v as an 8-byte big-endian key so that byte order
// matches numeric order. All integer primary keys in the engine use this.
func EncodeUint64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// AppendUint64 appends the big-endian encoding of v to dst.
func AppendUint64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// DecodeUint64 decodes a key produced by EncodeUint64.
func DecodeUint64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Composite-key encoding. Secondary indexes key entries on the composition
// (secondary key, primary key) so duplicate secondary keys remain unique, as
// in Section 3 of the paper. The secondary part is escaped (0x00 becomes
// 0x00 0xFF) and terminated with 0x00 0x01, which keeps byte comparison of
// composites equal to (secondary, primary) lexicographic order even for
// variable-length secondary keys.
const (
	escByte  = 0x00
	escCont  = 0xFF // 0x00 0xFF encodes a literal 0x00 inside the secondary
	escTerm  = 0x01 // 0x00 0x01 terminates the secondary part
	escUpper = 0x02 // 0x00 0x02 sorts above every primary, below extensions
)

// ComposeKey builds a composite (secondary key, primary key) index key.
func ComposeKey(secondary, primary []byte) []byte {
	return AppendComposeKey(make([]byte, 0, len(secondary)+len(primary)+4), secondary, primary)
}

// AppendComposeKey appends the composite key to dst: ComposeKey for a
// caller that hands the key straight to something that copies it.
func AppendComposeKey(dst, secondary, primary []byte) []byte {
	dst = appendEscaped(dst, secondary)
	dst = append(dst, escByte, escTerm)
	return append(dst, primary...)
}

func appendEscaped(dst, s []byte) []byte {
	for _, b := range s {
		if b == escByte {
			dst = append(dst, escByte, escCont)
		} else {
			dst = append(dst, b)
		}
	}
	return dst
}

// PrimaryOf returns the primary-key part of a key built by ComposeKey,
// aliasing composite, without unescaping the secondary part.
func PrimaryOf(composite []byte) ([]byte, error) {
	for i := 0; i+1 < len(composite); i++ {
		if composite[i] != escByte {
			continue
		}
		switch composite[i+1] {
		case escCont:
			i++
		case escTerm:
			return composite[i+2:], nil
		default:
			return nil, ErrCorrupt
		}
	}
	return nil, ErrCorrupt
}

// SplitKey splits a key built by ComposeKey back into its parts.
// The returned secondary is freshly allocated; primary aliases composite.
func SplitKey(composite []byte) (secondary, primary []byte, err error) {
	secondary = make([]byte, 0, len(composite))
	for i := 0; i < len(composite); i++ {
		b := composite[i]
		if b != escByte {
			secondary = append(secondary, b)
			continue
		}
		if i+1 >= len(composite) {
			return nil, nil, ErrCorrupt
		}
		switch composite[i+1] {
		case escCont:
			secondary = append(secondary, escByte)
			i++
		case escTerm:
			return secondary, composite[i+2:], nil
		default:
			return nil, nil, ErrCorrupt
		}
	}
	return nil, nil, ErrCorrupt
}

// AppendSecondaryScanBounds appends the [lo, hi) composite-key bounds
// covering all entries whose secondary part s satisfies loS <= s <= hiS
// (inclusive) to dst, lo then hi. It returns the extended buffer, which a
// caller reuses for its next query, and the two bounds as sub-slices of it.
func AppendSecondaryScanBounds(dst, loS, hiS []byte) (buf, lo, hi []byte) {
	start := len(dst)
	dst = appendEscaped(dst, loS)
	dst = append(dst, escByte, escTerm)
	mid := len(dst)
	dst = appendEscaped(dst, hiS)
	dst = append(dst, escByte, escUpper)
	return dst, dst[start:mid:mid], dst[mid:]
}
