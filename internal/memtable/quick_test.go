package memtable

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/kv"
)

// opSpec is a quick-generatable operation description.
type opSpec struct {
	Key   uint16
	Value uint8
	Anti  bool
	Shape uint8 // picks the value's length
}

// entry builds op's entry: a two-byte key, or an empty one for one key in
// 64; no value for anti-matter, else 0, 1 or 100 bytes of op.Value or, for
// one op in 16, more than a whole chunk of them.
func (op opSpec) entry(ts int) kv.Entry {
	e := kv.Entry{TS: int64(ts), Anti: op.Anti}
	if op.Key%64 != 0 {
		e.Key = []byte{byte(op.Key >> 8), byte(op.Key)}
	}
	if op.Anti {
		return e
	}
	n := [...]int{0, 1, 100, 1}[op.Shape%4]
	if op.Shape%16 == 15 {
		n = chunkSize + 1
	}
	e.Value = bytes.Repeat([]byte{op.Value}, n)
	return e
}

// TestQuickMatchesSortedMap: after any operation sequence, iteration yields
// exactly the model's entries in ascending key order, Get agrees on every
// key, and appending to what either returned changes nothing.
func TestQuickMatchesSortedMap(t *testing.T) {
	f := func(ops []opSpec) bool {
		m := New(3)
		model := map[string]kv.Entry{}
		for i, op := range ops {
			e := op.entry(i)
			m.Put(e)
			model[string(e.Key)] = e
		}
		if err := matches(m, model); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// matches reports how m differs from model, which maps each key to the
// entry last put for it: iteration must return the model's entries in
// ascending key order, and Get each one. It then appends to every key and
// value the table returned and checks again: a returned slice is clipped to
// its length, so appending to it copies it and changes no other entry.
func matches(m *Table, model map[string]kv.Entry) error {
	if m.Len() != len(model) {
		return fmt.Errorf("Len = %d, want %d", m.Len(), len(model))
	}
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	same := func(got, want kv.Entry) bool {
		return bytes.Equal(got.Key, want.Key) && bytes.Equal(got.Value, want.Value) &&
			got.TS == want.TS && got.Anti == want.Anti &&
			(got.Key == nil) == (len(want.Key) == 0) && (got.Value == nil) == (len(want.Value) == 0) // empty is nil
	}
	junk := bytes.Repeat([]byte{0xFF}, 64)
	for pass := 0; pass < 2; pass++ {
		var returned []kv.Entry
		it := m.NewIterator(nil, nil)
		for _, k := range keys {
			e, ok := it.Next()
			if !ok || !same(e, model[k]) {
				return fmt.Errorf("pass %d: iteration returned %v, %v where the model has %v", pass, e, ok, model[k])
			}
			returned = append(returned, e)
		}
		if e, ok := it.Next(); ok {
			return fmt.Errorf("pass %d: iteration returned %v past the model's last key", pass, e)
		}
		for _, k := range keys {
			e, ok := m.Get([]byte(k))
			if !ok || !same(e, model[k]) {
				return fmt.Errorf("pass %d: Get(%q) = %v, %v, want %v", pass, k, e, ok, model[k])
			}
			returned = append(returned, e)
		}
		for _, e := range returned {
			_ = append(e.Key, junk...)
			_ = append(e.Value, junk...)
		}
	}
	return nil
}

// TestQuickBoundedIteration: bounded iterators never leak keys outside
// [lo, hi).
func TestQuickBoundedIteration(t *testing.T) {
	f := func(keys []uint16, lo, hi uint16) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		m := New(5)
		inRange := 0
		seen := map[uint16]bool{}
		for i, k := range keys {
			m.Put(kv.Entry{Key: []byte{byte(k >> 8), byte(k)}, TS: int64(i)})
			if !seen[k] {
				seen[k] = true
				if k >= lo && k < hi {
					inRange++
				}
			}
		}
		it := m.NewIterator([]byte{byte(lo >> 8), byte(lo)}, []byte{byte(hi >> 8), byte(hi)})
		n := 0
		for {
			e, ok := it.Next()
			if !ok {
				break
			}
			k := uint16(e.Key[0])<<8 | uint16(e.Key[1])
			if k < lo || k >= hi {
				return false
			}
			n++
		}
		return n == inRange
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
