package dst

import (
	"fmt"
	"sort"
)

// valState is one possible state of a key: present with a value, or absent.
type valState struct {
	present bool
	val     string
}

func (v valState) String() string {
	if !v.present {
		return "<absent>"
	}
	return fmt.Sprintf("%x", v.val)
}

func (v valState) equal(o valState) bool {
	return v.present == o.present && (!v.present || v.val == o.val)
}

type keyEntry struct {
	certain valState
	// maybes are the writes that were issued but not acknowledged: the
	// engine reported failure, so the store promised only "not guaranteed,
	// retriable, not certainly absent".
	maybes []valState
}

// Model is the in-memory mirror the simulated store is checked against: a
// plain map of key states plus, per key, the set of unacknowledged writes
// whose fate is still open. Every crash — an in-process Crash/Recover or a
// process kill and reopen — replays the log as the device holds it, so one
// rule judges the state after any of them: a key shows its acknowledged
// state or any unacknowledged write (Allows). A write fails only on a fault
// that ends the session, so while a session runs every key is certain and
// reads are exact. After the reopen that follows, the observed state
// resolves the indeterminacy and is folded back into the model
// (ResolveHard).
//
// The model is not goroutine-safe; the harness drives it from the single
// workload goroutine.
type Model struct {
	keys      map[uint64]*keyEntry
	uncertain int // keys with a non-empty maybe set
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{keys: map[uint64]*keyEntry{}} }

func (m *Model) entry(id uint64) *keyEntry {
	e := m.keys[id]
	if e == nil {
		e = &keyEntry{}
		m.keys[id] = e
	}
	return e
}

func (m *Model) clearMaybes(e *keyEntry) {
	if len(e.maybes) > 0 {
		e.maybes = nil
		m.uncertain--
	}
}

// AckWrite records an acknowledged upsert/insert of val. The durable,
// acknowledged record supersedes every earlier unacknowledged write in WAL
// order, so the maybe set collapses.
func (m *Model) AckWrite(id uint64, val []byte) {
	e := m.entry(id)
	e.certain = valState{present: true, val: string(val)}
	m.clearMaybes(e)
}

// AckDelete records an acknowledged delete.
func (m *Model) AckDelete(id uint64) {
	e := m.entry(id)
	e.certain = valState{}
	m.clearMaybes(e)
}

// FailedWrite records an unacknowledged upsert/insert of val.
func (m *Model) FailedWrite(id uint64, val []byte) {
	m.addMaybe(id, valState{present: true, val: string(val)})
}

// FailedDelete records an unacknowledged delete.
func (m *Model) FailedDelete(id uint64) { m.addMaybe(id, valState{}) }

func (m *Model) addMaybe(id uint64, s valState) {
	e := m.entry(id)
	if len(e.maybes) == 0 {
		m.uncertain++
	}
	e.maybes = append(e.maybes, s)
}

// Allows reports whether observed is a legal state for id after a crash:
// the acknowledged state or any unacknowledged write. The model is not
// mutated.
func (m *Model) Allows(id uint64, observed valState) bool {
	e := m.keys[id]
	if e == nil {
		return !observed.present
	}
	if observed.equal(e.certain) {
		return true
	}
	for _, s := range e.maybes {
		if observed.equal(s) {
			return true
		}
	}
	return false
}

// ResolveHard checks observed against the legal post-crash states of id
// (Allows) and, when legal, folds it back in: the reopened store is
// concrete now, so observed becomes the key's certain state and the maybe
// set collapses.
func (m *Model) ResolveHard(id uint64, observed valState) bool {
	if !m.Allows(id, observed) {
		return false
	}
	e := m.entry(id)
	e.certain = observed
	m.clearMaybes(e)
	return true
}

// AllCertain reports whether no key has pending unacknowledged writes —
// the precondition of the strict full-image checks.
func (m *Model) AllCertain() bool { return m.uncertain == 0 }

// Keys returns every key the model has ever seen, sorted (map iteration
// order must never reach a determinism-checked code path).
func (m *Model) Keys() []uint64 {
	ids := make([]uint64, 0, len(m.keys))
	for id := range m.keys {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Certain returns the acknowledged state of id: while a session runs, the
// state the store must show.
func (m *Model) Certain(id uint64) valState {
	e := m.keys[id]
	if e == nil {
		return valState{}
	}
	return e.certain
}

// Describe renders the key's model state for failure messages.
func (m *Model) Describe(id uint64) string {
	e := m.keys[id]
	if e == nil {
		return "untouched"
	}
	s := "certain=" + e.certain.String()
	for _, mw := range e.maybes {
		s += fmt.Sprintf(" maybe=%s", mw)
	}
	return s
}
