package dst

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/storage"
)

// ErrKilled is returned by every mutating device operation after the
// simulated process death point: the op never reaches the inner device,
// exactly as if the process had been SIGKILLed before issuing it.
var ErrKilled = errors.New("dst: device killed (simulated crash)")

// injectedError marks an error produced by fault injection rather than the
// real device. The engine must treat it like any other I/O failure.
type injectedError struct{ kind string }

func (e *injectedError) Error() string { return "dst: injected " + e.kind + " fault" }

// Fault kinds. Each models a failure the real device (or the kernel under
// it) can produce, with the same visible contract filedev honors.
const (
	// KindWALAppend fails a log append before any byte is written: the
	// record certainly does not survive, matching filedev's
	// truncate-on-failed-append rollback contract.
	KindWALAppend = "wal-append"
	// KindTornAppend persists a seeded prefix of the record unsynced, then
	// kills the device — the torn-tail crash the WAL decoder must stop at.
	KindTornAppend = "torn-append"
	// KindSyncWAL fails the covering group fsync. Two flavors (Fault.Report):
	// fail-before never issues the fsync (bytes stay volatile); fail-report
	// issues it and lies about the result (bytes are durable, engine must
	// still treat the suffix as indeterminate).
	KindSyncWAL = "syncwal"
	// KindManifest fails SaveManifest before the install barrier: neither
	// the device sync nor the manifest replace happens, the old manifest
	// stays authoritative.
	KindManifest = "manifest"
	// KindPageAppend fails a component page append (maintenance write
	// path: flushes and merges must abort and retry, never install).
	KindPageAppend = "page-append"
)

// Device operation names: the shared vocabulary of the op trace and the
// Injector. Only mutating and durability operations are traced and
// faultable; reads pass through untouched.
const (
	OpCreate       = "create"
	OpDelete       = "delete"
	OpAppendPage   = "append-page"
	OpAppendWAL    = "append-wal"
	OpSyncWAL      = "sync-wal"
	OpRotateWAL    = "rotate-wal"
	OpDropWAL      = "drop-wal"
	OpSaveManifest = "save-manifest"
)

// Fault describes one injected failure.
type Fault struct {
	Kind string
	// Frac is the surviving fraction of a torn append.
	Frac float64
	// Report selects the fail-report flavor of KindSyncWAL.
	Report bool
}

func (f Fault) String() string {
	s := f.Kind
	if f.Kind == KindTornAppend {
		s += fmt.Sprintf("(%.3f)", f.Frac)
	}
	if f.Report {
		s += "(report)"
	}
	return s
}

// Injector decides, per device operation, whether a fault fires. ord is
// the per-(shard,op) ordinal of the operation, so a decision is a pure
// function of the operation's identity: suppressing one fired fault during
// minimization does not reshuffle the decisions of operations that still
// occur with the same ordinals.
type Injector interface {
	Decide(shard int, op string, ord int64) (Fault, bool)
}

// NoFaults never fires.
type NoFaults struct{}

func (NoFaults) Decide(int, string, int64) (Fault, bool) { return Fault{}, false }

// ScriptedFault pins one fault to the ord-th occurrence of op on shard.
// An Ord of -1 matches every occurrence.
type ScriptedFault struct {
	Shard int
	Op    string
	Ord   int64
	Fault Fault
}

// Script is an Injector driven by an explicit fault list — unit tests use
// it to place a single failure exactly on the operation under study.
type Script []ScriptedFault

func (s Script) Decide(shard int, op string, ord int64) (Fault, bool) {
	for _, f := range s {
		if f.Shard == shard && f.Op == op && (f.Ord == ord || f.Ord < 0) {
			return f.Fault, true
		}
	}
	return Fault{}, false
}

// SeededInjector fires faults pseudo-randomly, stateless per decision:
// each (shard, op, ord) hashes with Seed into a probability draw and a
// fault pick. Rate scales every base rate (1.0 = defaults, 0 = none).
type SeededInjector struct {
	Seed uint64
	Rate float64
}

func (s SeededInjector) Decide(shard int, op string, ord int64) (Fault, bool) {
	h := mix64(s.Seed ^ mix64(uint64(ord)+1)*0x100000001b3)
	h = fnvMix(h, op)
	h = mix64(h ^ uint64(shard)*0x9e3779b97f4a7c15)
	p := float64(h>>11) / (1 << 53)
	pick := mix64(h)
	frac := float64(pick>>11) / (1 << 53)
	switch op {
	case OpAppendWAL:
		if p < 0.008*s.Rate {
			return Fault{Kind: KindTornAppend, Frac: frac}, true
		}
		if p < 0.020*s.Rate {
			return Fault{Kind: KindWALAppend}, true
		}
	case OpSyncWAL:
		if p < 0.030*s.Rate {
			return Fault{Kind: KindSyncWAL, Report: pick&1 == 0}, true
		}
	case OpSaveManifest:
		if p < 0.050*s.Rate {
			return Fault{Kind: KindManifest}, true
		}
	case OpAppendPage:
		if p < 0.004*s.Rate {
			return Fault{Kind: KindPageAppend}, true
		}
	}
	return Fault{}, false
}

// FiredFault is one injector decision that fired during a run, in firing
// order. Index is its stable identity for suppression (minimization).
type FiredFault struct {
	Index      int64 // decision ordinal, identity for Control.SetSuppress
	OpIndex    int64 // traced-op counter value when it fired
	Shard      int
	Op         string
	Ord        int64 // per-(shard,op) ordinal the decision keyed on
	Fault      Fault
	Suppressed bool
}

func (f FiredFault) String() string {
	sup := ""
	if f.Suppressed {
		sup = " suppressed"
	}
	return fmt.Sprintf("T%d@op%d %s/%d#%d %s%s", f.Index, f.OpIndex, f.Op, f.Shard, f.Ord, f.Fault, sup)
}

// Control is the shared state behind every wrapped shard device of one
// simulated store: the op trace, the fault injector, the kill switch, and
// the per-shard WAL durability ledger the crash-image builder reads.
type Control struct {
	trace *Trace
	inj   Injector

	mu       sync.Mutex
	ops      int64
	killAt   int64
	killed   bool
	detached bool
	quiet    bool
	killOp   string
	nextIdx  int64
	fired    []FiredFault
	suppress map[int64]bool
	ordinals map[ordKey]int64
	wal      map[int]*walState
}

type ordKey struct {
	shard int
	op    string
}

// walState tracks what the live WAL segment holds vs what an OS-level crash
// is guaranteed to keep: length counts every write()n byte, durable the
// fsync-covered prefix. The gap is the tail a crash image may truncate.
// Sealed segments need no ledger: a rotation fsyncs the segment it seals.
type walState struct {
	seq             uint64 // the live segment; 0 before the session's first rotation
	length, durable int64
}

// NewControl builds a Control; inj must not be nil.
func NewControl(trace *Trace, inj Injector) *Control {
	return &Control{
		trace:    trace,
		inj:      inj,
		suppress: map[int64]bool{},
		ordinals: map[ordKey]int64{},
		wal:      map[int]*walState{},
	}
}

// SetKillAfter arms the kill switch: the n-th traced operation (1-based)
// fails with ErrKilled and every mutating op after it does too. 0 disarms.
func (c *Control) SetKillAfter(n int64) {
	c.mu.Lock()
	c.killAt = n
	c.mu.Unlock()
}

// SetSuppress marks fired-fault indexes (FiredFault.Index) whose faults
// are decided but not applied — the minimizer's knob.
func (c *Control) SetSuppress(idx map[int64]bool) {
	c.mu.Lock()
	c.suppress = idx
	c.mu.Unlock()
}

// Rearm resets the per-session gates — kill state, detachment, and the
// traced-op counter — for the next store generation of the same run.
// Decision indexes, ordinals, and the trace keep accumulating, so fault
// identities stay stable across sessions.
func (c *Control) Rearm(killAfter int64) {
	c.mu.Lock()
	c.killed = false
	c.killOp = ""
	c.detached = false
	c.ops = 0
	c.killAt = killAfter
	c.mu.Unlock()
}

// SetQuiet toggles injection off (tracing and kill enforcement stay on).
// The harness runs Open and final-verification phases quiet: faults there
// would probe a different contract than the one under test.
func (c *Control) SetQuiet(q bool) {
	c.mu.Lock()
	c.quiet = q
	c.mu.Unlock()
}

// Kill flips the device into the dead state immediately.
func (c *Control) Kill() { c.killFrom("manual") }

// killFrom is Kill with the op the death interrupted, so the harness can
// tell a commit-path death from a maintenance-path one.
func (c *Control) killFrom(op string) {
	c.mu.Lock()
	if !c.killed && !c.detached {
		c.killed = true
		c.killOp = op
		c.trace.Add("kill")
	}
	c.mu.Unlock()
}

// KillOp returns the device op on which the engine saw the death ("" while
// it has not): the op the kill switch fired on, or — when that op reports
// nothing, as an unlink or a segment drop does — the first op refused
// afterwards. That later op, not the silent one, tells a commit-path death
// from a maintenance-path one.
func (c *Control) KillOp() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killOp
}

// Killed reports whether the simulated process death point was reached.
func (c *Control) Killed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killed
}

// Detach ends the simulation for this store: no more tracing, faulting, or
// kill enforcement; everything passes through. The harness detaches after
// snapshotting the crash image so the abandoned store's Close can release
// file handles without polluting the record.
func (c *Control) Detach() {
	c.mu.Lock()
	c.detached = true
	c.mu.Unlock()
}

// Ops returns the traced-operation count so far.
func (c *Control) Ops() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// Fired returns a copy of the decisions that fired, in firing order.
func (c *Control) Fired() []FiredFault {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]FiredFault(nil), c.fired...)
}

// WALState returns the shard's live WAL segment with its written length and
// fsync-covered prefix, in bytes.
func (c *Control) WALState(shard int) (seq uint64, length, durable int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.wal[shard]
	if w == nil {
		return 0, 0, 0
	}
	return w.seq, w.length, w.durable
}

// begin gates one traced operation: enforces the kill switch, assigns the
// op its trace entry, and asks the injector for a fault.
func (c *Control) begin(shard int, op, detail string) (Fault, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.detached {
		return Fault{}, false, nil
	}
	silent := op == OpDelete || op == OpDropWAL // no error return: the engine learns nothing here
	if c.killed {
		if c.killOp == "" && !silent {
			c.killOp = op
		}
		return Fault{}, false, ErrKilled
	}
	c.ops++
	opIdx := c.ops
	if c.killAt > 0 && opIdx >= c.killAt {
		c.killed = true
		if !silent {
			c.killOp = op
		}
		c.trace.Addf("%s/%d %s -> kill@%d", op, shard, detail, opIdx)
		return Fault{}, false, ErrKilled
	}
	k := ordKey{shard, op}
	ord := c.ordinals[k]
	c.ordinals[k] = ord + 1
	var f Fault
	ok := false
	if !c.quiet {
		f, ok = c.inj.Decide(shard, op, ord)
	}
	tag := ""
	if ok {
		idx := c.nextIdx
		c.nextIdx++
		sup := c.suppress[idx]
		c.fired = append(c.fired, FiredFault{
			Index: idx, OpIndex: opIdx, Shard: shard, Op: op, Ord: ord,
			Fault: f, Suppressed: sup,
		})
		if sup {
			tag = fmt.Sprintf(" [T%d:%s suppressed]", idx, f.Kind)
			ok = false
		} else {
			tag = fmt.Sprintf(" [T%d:%s]", idx, f.Kind)
		}
	}
	c.trace.Addf("%s/%d %s%s", op, shard, detail, tag)
	return f, ok, nil
}

// note records a trace-only event (no kill gate, no faults).
func (c *Control) note(shard int, op, detail string) {
	c.mu.Lock()
	if !c.detached && !c.killed {
		c.trace.Addf("%s/%d %s", op, shard, detail)
	}
	c.mu.Unlock()
}

func (c *Control) walFor(shard int) *walState {
	w := c.wal[shard]
	if w == nil {
		w = &walState{}
		c.wal[shard] = w
	}
	return w
}

// walMark snapshots the live segment and its written length, taken before
// issuing an fsync that will cover it.
func (c *Control) walMark(shard int) walState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return *c.walFor(shard)
}

func (c *Control) noteAppendWAL(shard int, n int) {
	c.mu.Lock()
	c.walFor(shard).length += int64(n)
	c.mu.Unlock()
}

// noteWALSynced marks the prefix up to the mark durable (a covering fsync
// completed; mark is the walMark taken before issuing it). A mark of a
// segment sealed since says nothing about the live one.
func (c *Control) noteWALSynced(shard int, mark walState) {
	c.mu.Lock()
	w := c.walFor(shard)
	if mark.seq == w.seq && mark.length > w.durable {
		w.durable = mark.length
	}
	c.mu.Unlock()
}

// noteRotateWAL starts the ledger of a fresh live segment (empty at open,
// too: a session never appends to a segment it found).
func (c *Control) noteRotateWAL(shard int, seq uint64) {
	c.mu.Lock()
	*c.walFor(shard) = walState{seq: seq}
	c.mu.Unlock()
}

// Device is the fault-injecting storage.Device wrapper. Mutating and
// durability operations — page appends and the whole log area — are
// traced, counted against the kill switch, and subject to injection; reads
// pass through untouched. Wrap returns the richer durableDevice when the
// inner device is a storage.Durable, so the wrapped device is durable
// exactly when the one beneath it is.
type Device struct {
	c     *Control
	shard int
	inner storage.Device
}

var _ storage.Device = (*Device)(nil)

// Wrap wraps one shard's device. Use it as lsmstore.Options.WrapDevice.
func (c *Control) Wrap(shard int, dev storage.Device) storage.Device {
	c.mu.Lock()
	c.walFor(shard)
	c.mu.Unlock()
	d := Device{c: c, shard: shard, inner: dev}
	if inner, ok := dev.(storage.Durable); ok {
		return &durableDevice{Device: d, dur: inner}
	}
	return &d
}

func (d *Device) Profile() storage.Profile { return d.inner.Profile() }
func (d *Device) PageSize() int            { return d.inner.PageSize() }
func (d *Device) BytesWritten() int64      { return d.inner.BytesWritten() }
func (d *Device) List() []storage.FileID   { return d.inner.List() }

func (d *Device) Create() storage.FileID {
	id := d.inner.Create()
	d.c.note(d.shard, OpCreate, fmt.Sprintf("id=%d", id))
	return id
}

func (d *Device) Delete(id storage.FileID) {
	if _, _, err := d.c.begin(d.shard, OpDelete, fmt.Sprintf("id=%d", id)); err != nil {
		return // a dead process deletes nothing
	}
	d.inner.Delete(id)
}

func (d *Device) AppendPage(id storage.FileID, data []byte) (int, error) {
	f, ok, err := d.c.begin(d.shard, OpAppendPage, fmt.Sprintf("id=%d n=%d", id, len(data)))
	if err != nil {
		return 0, err
	}
	if ok && f.Kind == KindPageAppend {
		return 0, &injectedError{KindPageAppend}
	}
	return d.inner.AppendPage(id, data)
}

func (d *Device) ReadPage(id storage.FileID, page int, dst []byte) ([]byte, error) {
	return d.inner.ReadPage(id, page, dst)
}

func (d *Device) NumPages(id storage.FileID) (int, error) { return d.inner.NumPages(id) }

func (d *Device) Close() error {
	d.c.mu.Lock()
	dead := d.c.killed && !d.c.detached
	d.c.mu.Unlock()
	if dead {
		// A dead process cannot run its shutdown path (which would flush
		// buffered pages). The harness detaches after snapshotting the
		// crash image, and only then closes to release file handles.
		return ErrKilled
	}
	return d.inner.Close()
}

func (d *Device) AppendWAL(data []byte) error {
	f, ok, err := d.c.begin(d.shard, OpAppendWAL, fmt.Sprintf("n=%d", len(data)))
	if err != nil {
		return err
	}
	if ok {
		switch f.Kind {
		case KindWALAppend:
			// Nothing reaches the device.
			return &injectedError{KindWALAppend}
		case KindTornAppend:
			// A prefix lands unsynced, then the process dies mid-append.
			n := 0
			if len(data) > 0 {
				n = 1 + int(f.Frac*float64(len(data)-1))
				if n > len(data) {
					n = len(data)
				}
			}
			if n > 0 {
				if aerr := d.inner.AppendWAL(data[:n]); aerr == nil {
					d.c.noteAppendWAL(d.shard, n)
				}
			}
			d.c.killFrom(OpAppendWAL)
			return ErrKilled
		}
	}
	if err := d.inner.AppendWAL(data); err != nil {
		return err
	}
	d.c.noteAppendWAL(d.shard, len(data))
	return nil
}

func (d *Device) SyncWAL() error {
	f, ok, err := d.c.begin(d.shard, OpSyncWAL, "")
	if err != nil {
		return err
	}
	mark := d.c.walMark(d.shard)
	if ok && f.Kind == KindSyncWAL {
		if f.Report {
			// Fail-report flavor: the fsync completes — the bytes ARE
			// durable — but failure is reported. The engine must treat the
			// covered suffix as indeterminate anyway.
			if serr := d.inner.SyncWAL(); serr == nil {
				d.c.noteWALSynced(d.shard, mark)
			}
		}
		// Fail-before flavor: the fsync never happens; the bytes stay
		// volatile until some later covering sync.
		return &injectedError{KindSyncWAL}
	}
	if err := d.inner.SyncWAL(); err != nil {
		return err
	}
	d.c.noteWALSynced(d.shard, mark)
	return nil
}

func (d *Device) LoadWAL() ([]storage.WALSegment, error) {
	segs, err := d.inner.LoadWAL()
	if err != nil {
		return nil, err
	}
	n := 0
	for _, s := range segs {
		n += len(s.Data)
	}
	d.c.note(d.shard, "load-wal", fmt.Sprintf("segs=%d n=%d", len(segs), n))
	return segs, nil
}

// RotateWAL and DropWAL are kill points and nothing else: a death before a
// rotation leaves the old live segment with its unsynced tail, a death
// before the first append after one leaves an empty successor, and a death
// between two drops leaves a suffix of the covered segments.
func (d *Device) RotateWAL(seq uint64) error {
	if _, _, err := d.c.begin(d.shard, OpRotateWAL, fmt.Sprintf("seq=%d", seq)); err != nil {
		return err
	}
	if err := d.inner.RotateWAL(seq); err != nil {
		return err
	}
	d.c.noteRotateWAL(d.shard, seq)
	return nil
}

func (d *Device) DropWAL(seq uint64) {
	if _, _, err := d.c.begin(d.shard, OpDropWAL, fmt.Sprintf("seq=%d", seq)); err != nil {
		return // a dead process unlinks nothing
	}
	d.inner.DropWAL(seq)
}

// durableDevice extends Device with the manifest half of storage.Durable,
// forwarding to the durable view of the same inner device.
type durableDevice struct {
	Device
	dur storage.Durable
}

var _ storage.Durable = (*durableDevice)(nil)

func (d *durableDevice) SaveManifest(data []byte) error {
	f, ok, err := d.c.begin(d.shard, OpSaveManifest, fmt.Sprintf("n=%d", len(data)))
	if err != nil {
		return err
	}
	if ok && f.Kind == KindManifest {
		// Fail before the install barrier: no device sync, no manifest
		// replace; the previous manifest stays authoritative.
		return &injectedError{KindManifest}
	}
	mark := d.c.walMark(d.shard)
	if err := d.dur.SaveManifest(data); err != nil {
		return err
	}
	// SaveManifest syncs the whole device (WAL included) before the
	// atomic replace, so every appended byte is durable once it returns.
	d.c.noteWALSynced(d.shard, mark)
	return nil
}

func (d *durableDevice) LoadManifest() ([]byte, error) { return d.dur.LoadManifest() }
