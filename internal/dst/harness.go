package dst

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/admission"
	"repro/internal/workload"
	"repro/lsmstore"
)

// Profile selects how much real concurrency a run allows.
type Profile int

const (
	// Seq drives the store from a single goroutine with no background
	// maintenance workers: every scheduling decision is the harness's, so
	// a seed reproduces bit-identical op traces, fault schedules, and
	// verdicts.
	Seq Profile = iota
	// Conc enables background maintenance workers and seeded yield-point
	// perturbation. Verdicts stay sound (the model only trusts
	// acknowledged results), but the op trace is interleaving-dependent
	// and carries no reproducibility guarantee.
	Conc
)

func (p Profile) String() string {
	if p == Conc {
		return "conc"
	}
	return "seq"
}

// ParseProfile parses "seq" or "conc".
func ParseProfile(s string) (Profile, error) {
	switch s {
	case "seq":
		return Seq, nil
	case "conc":
		return Conc, nil
	}
	return Seq, fmt.Errorf("dst: unknown profile %q", s)
}

// BugKeepCommit re-arms the historical keep-commit-on-failed-fsync bug
// (wal.Log.SetUnsafeKeepCommitOnFailedFsync) in every opened store, so the
// corpus can prove the harness catches it.
const BugKeepCommit = "keep-commit"

// BugEarlyUnlink and BugEarlyCut re-arm the two ordering bugs reclamation
// must never have (core.Dataset.SetUnsafeReclaimBeforePersist): the files of
// merged-away components are unlinked, or the covered log segments dropped,
// before the manifest that makes them garbage is durable. A failed or killed
// manifest save then leaves a directory whose manifest names missing files,
// or whose acknowledged writes are in neither a component nor the log.
const (
	BugEarlyUnlink = "early-unlink"
	BugEarlyCut    = "early-cut"
)

// BugEarlyUnpin re-arms a pin-lifetime bug in the buffer cache's frame
// recycling (cache.LRU.SetUnsafeEarlyUnpin): a B+-tree scan drops its
// previous leaf's pin as soon as it moves on, so a merged iterator can emit,
// compare or copy an entry whose frame was already recycled for another
// page. Every run poisons freed frames (cache.LRU.SetPoison), so such an
// entry reads garbage rather than bytes that happen to survive.
const BugEarlyUnpin = "early-unpin"

// Bugs lists every re-armable bug.
var Bugs = []string{BugKeepCommit, BugEarlyUnlink, BugEarlyCut, BugEarlyUnpin}

// Config parameterizes one simulated run.
type Config struct {
	// Seed drives every pseudo-random choice: workload, fault schedule,
	// kill points, crash-image tail survival, store configuration.
	Seed int64
	// Ops is the workload-operation budget across all sessions (default
	// 400).
	Ops int
	// FaultRate scales fault-injection probabilities; 0 disables
	// injection, 1 is the default rates.
	FaultRate float64
	// KillAfter, when positive, kills the device at exactly that traced
	// device operation of the first session (later sessions use the
	// seeded policy only when FaultRate is set). 0 leaves kills to the
	// seeded policy.
	KillAfter int64
	// Profile selects Seq (bit-reproducible) or Conc.
	Profile Profile
	// Dir is the scratch root for store generations; required, and must
	// be empty or absent.
	Dir string
	// Bug re-arms a bug ("" or one of Bugs).
	Bug string
	// RecordTrace retains the full event list in Report.Trace.
	RecordTrace bool
	// Suppress holds fired-fault indexes (FiredFault.Index) to decide but
	// not apply — the minimizer's knob.
	Suppress map[int64]bool
	// MaxSessions bounds crash/reopen cycles (default 12).
	MaxSessions int
}

// Report is one run's outcome.
type Report struct {
	Seed      int64
	Profile   Profile
	Setup     string // derived store configuration, for humans
	Failed    bool
	Verdict   string // "ok" or the first check violation
	Ops       int    // workload ops executed
	Sessions  int    // store generations opened
	Kills     int    // simulated process deaths
	TraceHash uint64
	TraceLen  int
	Trace     []string     // full event list when Config.RecordTrace
	Faults    []FiredFault // injector decisions that fired, in order
}

// checkFailure is a model-vs-store violation: the run's verdict, as
// opposed to a harness infrastructure error.
type checkFailure struct{ msg string }

func (e *checkFailure) Error() string { return e.msg }

func failf(format string, args ...any) error {
	return &checkFailure{msg: fmt.Sprintf(format, args...)}
}

// faultInduced reports whether err traces back to the harness's own fault
// injection or kill switch. Any other error out of the store is a bug.
func faultInduced(err error) bool {
	if errors.Is(err, ErrKilled) {
		return true
	}
	var ie *injectedError
	return errors.As(err, &ie)
}

// walkFaults calls fn with the kind of every injected fault in err's tree,
// and with "killed" for the kill sentinel. errors.As stops at the first
// injectedError, which is not enough: a batch error can join a maintenance
// fault with a later commit fault.
func walkFaults(err error, fn func(kind string)) {
	if err == nil {
		return
	}
	if ie, ok := err.(*injectedError); ok {
		fn(ie.kind)
	}
	if err == ErrKilled {
		fn("killed")
	}
	switch u := err.(type) {
	case interface{ Unwrap() error }:
		walkFaults(u.Unwrap(), fn)
	case interface{ Unwrap() []error }:
		for _, e := range u.Unwrap() {
			walkFaults(e, fn)
		}
	}
}

// commitUncertain reports whether err leaves the failed op's WAL commit in
// doubt. Manifest installs and page appends happen only on the maintenance
// path, which runs after the op's own commit returned durable — an error
// carrying only those kinds means the write itself stands and will replay.
// Commit-path kinds (failed log append, failed group fsync, torn append)
// mean the commit may be lost; so does a kill, when it fired on a WAL op.
func (h *harness) commitUncertain(err error) bool {
	uncertain := false
	walkFaults(err, func(kind string) {
		switch kind {
		case KindWALAppend, KindSyncWAL, KindTornAppend:
			uncertain = true
		case "killed":
			switch h.control.KillOp() {
			case OpAppendWAL, OpSyncWAL:
				uncertain = true
			}
		}
	})
	return uncertain
}

// markFailedWrite records a failed upsert/insert in the model. When the
// commit is in doubt the write becomes an on-disk-WAL-only maybe (the
// non-batched path never applies a failed commit to the memory image).
// When only the maintenance path failed, the commit stands: under the Seq
// profile that classification is airtight (no background workers, so the
// fault provably fired inside this op's post-commit flush) and the write is
// acknowledged outright; under Conc a background worker's sticky error can
// surface on an op whose own fate differs, so the write stays a maybe that
// is allowed to be visible.
func (h *harness) markFailedWrite(id uint64, rec []byte, err error) {
	switch {
	case h.commitUncertain(err):
		h.model.FailedWrite(id, rec, false)
	case h.workers == 0:
		h.model.AckWrite(id, rec)
	default:
		h.model.FailedWrite(id, rec, true)
	}
}

// markFailedDelete is markFailedWrite for deletes.
func (h *harness) markFailedDelete(id uint64, err error) {
	switch {
	case h.commitUncertain(err):
		h.model.FailedDelete(id, false)
	case h.workers == 0:
		h.model.AckDelete(id)
	default:
		h.model.FailedDelete(id, true)
	}
}

// workload op kinds, drawn by weight.
type wop int

const (
	wUpsert wop = iota
	wInsert
	wDelete
	wGet
	wBatch
	wQuery
	wScan
	wFlush
	wSoftCrash
)

var opWeights = []struct {
	op wop
	w  int
}{
	{wUpsert, 30}, {wInsert, 13}, {wDelete, 10}, {wGet, 22},
	{wBatch, 9}, {wQuery, 6}, {wScan, 3}, {wFlush, 3}, {wSoftCrash, 4},
}

type harness struct {
	cfg     Config
	trace   *Trace
	model   *Model
	control *Control
	sched   *Sched

	wrng    *rng // workload stream
	sessRng *rng // per-session policy (kill points)
	imgRng  *rng // crash-image tail survival

	strategy   lsmstore.Strategy
	validation lsmstore.ValidationMethod
	shards     int
	workers    int
	keySpace   int
	readCache  bool
	adm        *admission.Controller // nil when the admission dimension is off

	creation    int64
	dir         string
	gen         int
	sessions    int
	kills       int
	opsExecuted int
	db          *lsmstore.DB
}

// Run executes one simulated run and returns its Report. The returned
// error covers harness infrastructure only (scratch directory, snapshot
// I/O); store-vs-model violations land in Report.Verdict with
// Report.Failed set.
func Run(cfg Config) (*Report, error) {
	if cfg.Dir == "" {
		return nil, errors.New("dst: Config.Dir is required")
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 400
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 12
	}

	root := newRNG(mix64(uint64(cfg.Seed) ^ 0xD57D57D5D57D57D5))
	cfgRng := root.fork("config")

	h := &harness{
		cfg:     cfg,
		trace:   NewTrace(cfg.RecordTrace),
		model:   NewModel(),
		wrng:    root.fork("workload"),
		sessRng: root.fork("session"),
		imgRng:  root.fork("image"),
	}

	strategies := []lsmstore.Strategy{
		lsmstore.Eager, lsmstore.Validation, lsmstore.MutableBitmap, lsmstore.DeletedKey,
	}
	h.strategy = strategies[cfgRng.intn(len(strategies))]
	switch h.strategy {
	case lsmstore.Eager:
		h.validation = lsmstore.NoValidation
	case lsmstore.DeletedKey:
		// Timestamp validation is unsound for the deleted-key strategy
		// (its secondaries have no timestamps to check against); queries
		// must validate directly or via the deleted-key trees.
		h.validation = lsmstore.DirectValidation
	default:
		h.validation = lsmstore.TimestampValidation
	}
	h.keySpace = 80 + cfgRng.intn(160)
	h.shards, h.workers = 1, 0
	perturb := false
	if cfg.Profile == Conc {
		h.workers = 2
		perturb = true
		if cfgRng.chance(0.5) {
			h.shards = 2
		}
	}
	// Drawn last so adding it did not reshuffle the existing corpus'
	// configurations. The cache is deliberately tiny relative to the
	// keyspace, so runs with it on cross eviction as well as
	// fill/invalidate/crash paths while the model checks every read.
	h.readCache = cfgRng.chance(0.5)
	// Admission is drawn after readCache for the same corpus-stability
	// reason. The controller is configured with no queue (negative
	// MaxQueue) so shed decisions resolve immediately — no timers, no
	// goroutines — which keeps runs deterministic: a workload-stream draw
	// in step decides when the budget is artificially exhausted.
	if cfgRng.chance(0.5) {
		h.adm = admission.New(admission.Config{Budget: 1, MaxQueue: -1})
	}

	var inj Injector = NoFaults{}
	if cfg.FaultRate > 0 {
		inj = SeededInjector{Seed: mix64(uint64(cfg.Seed) ^ 0xFA017FA017), Rate: cfg.FaultRate}
	}
	h.control = NewControl(h.trace, inj)
	if cfg.Suppress != nil {
		h.control.SetSuppress(cfg.Suppress)
	}
	schedTrace := h.trace
	if cfg.Profile == Conc {
		schedTrace = nil // interleaving-dependent; keep the trace honest
	}
	h.sched = NewSched(mix64(uint64(cfg.Seed)^0x5C4ED5C4ED), perturb, schedTrace)

	h.dir = filepath.Join(cfg.Dir, "g0000")
	if err := os.MkdirAll(h.dir, 0o755); err != nil {
		return nil, err
	}
	h.trace.Addf("run strategy=%v shards=%d keyspace=%d readcache=%s admission=%s",
		h.strategy, h.shards, h.keySpace, onOff(h.readCache), onOff(h.adm != nil))

	report := &Report{
		Seed:    cfg.Seed,
		Profile: cfg.Profile,
		Setup: fmt.Sprintf("strategy=%v shards=%d workers=%d keyspace=%d readcache=%s admission=%s",
			h.strategy, h.shards, h.workers, h.keySpace, onOff(h.readCache), onOff(h.adm != nil)),
		Verdict: "ok",
	}
	err := h.run()
	var cf *checkFailure
	if errors.As(err, &cf) {
		report.Failed = true
		report.Verdict = cf.msg
		err = nil
	}
	if h.db != nil { // abandoned on a failure path; release handles
		h.control.Detach()
		_ = h.db.Close()
		h.db = nil
	}
	if h.adm != nil {
		h.adm.Close()
	}
	report.Ops = h.opsExecuted
	report.Sessions = h.sessions
	report.Kills = h.kills
	report.TraceHash = h.trace.Hash()
	report.TraceLen = h.trace.Len()
	report.Trace = h.trace.Events()
	report.Faults = h.control.Fired()
	return report, err
}

// run is the session loop: open, reconcile, drive until crash or budget
// exhaustion, repeat; finish with a quiet verification pass.
func (h *harness) run() error {
	opsLeft := h.cfg.Ops
	for {
		if err := h.openSession(); err != nil {
			return err
		}
		if err := h.reconcile(); err != nil {
			return err
		}
		if opsLeft <= 0 || h.sessions >= h.cfg.MaxSessions {
			h.control.SetQuiet(true)
			h.trace.Add("final close")
			err := h.db.Close()
			h.db = nil
			if err != nil {
				return failf("final close failed: %v", err)
			}
			return nil
		}
		h.sessions++
		if err := h.drive(&opsLeft); err != nil {
			return err
		}
	}
}

// openSession opens the current generation directory quietly (no faults,
// no kill: injecting into Open would probe a different contract) and arms
// the configured bug.
func (h *harness) openSession() error {
	h.control.Rearm(0)
	h.control.SetQuiet(true)
	h.trace.Addf("open g%04d", h.gen)
	db, err := lsmstore.Open(h.options())
	if err != nil {
		return failf("reopen of g%04d failed: %v", h.gen, err)
	}
	h.db = db
	for i := 0; i < db.NumShards(); i++ {
		db.Shard(i).Log().SetUnsafeKeepCommitOnFailedFsync(h.cfg.Bug == BugKeepCommit)
		db.Shard(i).SetUnsafeReclaimBeforePersist(h.cfg.Bug == BugEarlyUnlink, h.cfg.Bug == BugEarlyCut)
		frames := db.Shard(i).Config().Store.Cache()
		frames.SetPoison(true)
		frames.SetUnsafeEarlyUnpin(h.cfg.Bug == BugEarlyUnpin)
	}
	return nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func (h *harness) options() lsmstore.Options {
	var rc lsmstore.ReadCacheOptions
	if h.readCache {
		// Small enough that a run's keyspace does not fit: eviction runs
		// alongside invalidation, and a stale survivor would be caught by
		// the model on the very next read of that key.
		rc = lsmstore.ReadCacheOptions{Bytes: 8 << 10, Segments: 2}
	}
	return lsmstore.Options{
		ReadCache: rc,
		Strategy:  h.strategy,
		Secondaries: []lsmstore.SecondaryIndex{
			{Name: "user", Extract: workload.UserIDOf},
		},
		FilterExtract:      workload.CreationOf,
		Backend:            lsmstore.FileBackend,
		Dir:                h.dir,
		MemoryBudget:       8 << 10,     // tiny: every run crosses flush and merge paths
		CacheBytes:         2 * 4 << 10, // two frames: nearly every page a scan leaves is evicted by its next read
		PageSize:           4 << 10,
		Seed:               5,
		Shards:             h.shards,
		MaintenanceWorkers: h.workers,
		WrapDevice:         h.control.Wrap,
		Yield:              h.sched.Yield,
	}
}

// nextKillAt draws the session's kill point.
func (h *harness) nextKillAt() int64 {
	if h.cfg.KillAfter > 0 {
		if h.sessions == 1 {
			return h.cfg.KillAfter
		}
		if h.cfg.FaultRate <= 0 {
			return 0
		}
	}
	if h.cfg.FaultRate <= 0 && h.cfg.KillAfter <= 0 {
		return 0
	}
	if !h.sessRng.chance(0.6) {
		return 0
	}
	return int64(40 + h.sessRng.intn(2200))
}

// drive runs workload ops against the open store until the session ends:
// a kill / write failure (hard crash + reopen next loop) or an exhausted
// budget (clean close).
func (h *harness) drive(opsLeft *int) error {
	h.control.Rearm(h.nextKillAt())
	h.control.SetQuiet(false)
	for *opsLeft > 0 {
		*opsLeft--
		h.opsExecuted++
		done, err := h.step()
		if err != nil {
			return err
		}
		if done {
			return h.hardCrash()
		}
	}
	h.trace.Add("close")
	err := h.db.Close()
	h.db = nil
	if err != nil {
		if h.control.Killed() {
			return h.hardCrash()
		}
		if !faultInduced(err) {
			return failf("close failed without an injected fault: %v", err)
		}
		// An injected fault surfaced in Close's persist path: legal. The
		// directory state is whatever the fault left; the next loop
		// iteration reopens and reconciles it.
		h.trace.Add("close-err")
	}
	return nil
}

// hardCrash simulates the process dying: snapshot the crash image, advance
// to the next generation, release the dead store's handles.
func (h *harness) hardCrash() error {
	h.control.Kill()
	h.kills++
	next := filepath.Join(h.cfg.Dir, fmt.Sprintf("g%04d", h.gen+1))
	if err := os.MkdirAll(next, 0o755); err != nil {
		return err
	}
	if err := snapshotCrashImage(h.dir, next, h.control, h.imgRng); err != nil {
		return err
	}
	h.control.Detach()
	if h.db != nil {
		_ = h.db.Close()
		h.db = nil
	}
	h.gen++
	h.dir = next
	h.trace.Addf("crash -> g%04d", h.gen)
	return nil
}

// reconcile resolves every key's indeterminacy against the reopened store
// (kills and faults may or may not have persisted unacknowledged writes),
// then runs the strict full-image checks: with every key certain again,
// point reads, the secondary index, and the filter scan must match the
// model exactly.
func (h *harness) reconcile() error {
	for _, id := range h.model.Keys() {
		obs, err := h.observe(id)
		if err != nil {
			return err
		}
		if !h.model.ResolveHard(id, obs) {
			return failf("g%04d reopen: key %d observed %s, model allows %s",
				h.gen, id, obs, h.model.Describe(id))
		}
	}
	return h.fullCheck("reopen")
}

func (h *harness) observe(id uint64) (valState, error) {
	rec, found, err := h.db.Get(pkOf(id))
	if err != nil {
		return valState{}, failf("get %d failed: %v", id, err)
	}
	return valState{present: found, val: string(rec)}, nil
}

// fullCheck compares the store's whole observable image — filter scan and
// secondary index — against the model. Only valid when every key is
// certain.
func (h *harness) fullCheck(when string) error {
	if !h.model.AllCertain() {
		return fmt.Errorf("dst: internal: fullCheck with uncertain keys")
	}
	expected := map[string]string{}
	for _, id := range h.model.Keys() {
		if s := h.model.Certain(id); s.present {
			expected[string(pkOf(id))] = s.val
		}
	}

	scanned := map[string]string{}
	err := h.db.FilterScan(0, 1<<62, func(pk, rec []byte) {
		scanned[string(pk)] = string(rec)
	})
	if err != nil {
		return failf("%s: filter scan failed: %v", when, err)
	}
	if diff := mapDiff(expected, scanned); diff != "" {
		return failf("%s: filter scan diverged from model: %s", when, diff)
	}

	q, err := h.db.SecondaryQuery("user", workload.UserKey(0), workload.UserKey(39),
		lsmstore.QueryOptions{Validation: h.validation})
	if err != nil {
		return failf("%s: secondary query failed: %v", when, err)
	}
	secondary := map[string]string{}
	for _, r := range q.Records {
		secondary[string(r.PK)] = string(r.Value)
	}
	if diff := mapDiff(expected, secondary); diff != "" {
		return failf("%s: secondary index diverged from model: %s", when, diff)
	}
	return nil
}

// mapDiff returns "" when the maps match, else a description of the first
// few differences in sorted-key order.
func mapDiff(want, got map[string]string) string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var diffs []string
	for _, k := range sorted {
		w, wok := want[k]
		g, gok := got[k]
		if wok == gok && w == g {
			continue
		}
		diffs = append(diffs, fmt.Sprintf("key %x: want %v/%x got %v/%x", k, wok, w, gok, g))
		if len(diffs) >= 3 {
			diffs = append(diffs, "...")
			break
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	return fmt.Sprint(diffs)
}

// failWrite handles the first acknowledged-path failure of a session: the
// error must trace back to injection or the kill switch, and an in-process
// crash-recover must then show only legal states — in particular, a commit
// whose fsync failed must NOT be replayed unless the live memory image
// legitimately held it (the keep-commit-on-failed-fsync detector).
func (h *harness) failWrite(err error) error {
	if !faultInduced(err) {
		return failf("write failed without an injected fault: %v", err)
	}
	h.trace.Add("op-fail " + faultClass(err))
	h.db.Crash()
	if rerr := h.db.Recover(); rerr != nil {
		return failf("recover after failed write: %v", rerr)
	}
	for _, id := range h.model.Keys() {
		obs, oerr := h.observe(id)
		if oerr != nil {
			return oerr
		}
		if !h.model.CheckSoft(id, obs) {
			return failf("after crash-recover, key %d observed %s, model allows %s (failed commit replayed?)",
				id, obs, h.model.Describe(id))
		}
	}
	return nil
}

func faultClass(err error) string {
	if errors.Is(err, ErrKilled) {
		return "killed"
	}
	var ie *injectedError
	if errors.As(err, &ie) {
		return ie.kind
	}
	return "other"
}

// markBatchMut records one predicted mutation of a failed batch: ack marks
// it acknowledged outright, otherwise it becomes a maybe whose inMem flag
// says whether it may legitimately be visible after an in-process
// crash-recover.
func (h *harness) markBatchMut(isDelete bool, id uint64, val []byte, ack, inMem bool) {
	if isDelete {
		if ack {
			h.model.AckDelete(id)
		} else {
			h.model.FailedDelete(id, inMem)
		}
		return
	}
	if ack {
		h.model.AckWrite(id, val)
	} else {
		h.model.FailedWrite(id, val, inMem)
	}
}

func pkOf(id uint64) []byte { return workload.Tweet{ID: id}.PK() }

// blindDeletes reports whether the strategy deletes without an existence
// check: Validation and DeletedKey always log anti-matter and report the
// delete applied; Eager and MutableBitmap look the key up first and ignore
// deletes of absent keys.
func (h *harness) blindDeletes() bool {
	return h.strategy == lsmstore.Validation || h.strategy == lsmstore.DeletedKey
}

func (h *harness) key() uint64 { return uint64(1 + h.wrng.intn(h.keySpace)) }

func (h *harness) tweet(id uint64) workload.Tweet {
	h.creation++
	msg := make([]byte, 8+h.wrng.intn(16))
	for i := range msg {
		msg[i] = byte('a' + h.wrng.intn(26))
	}
	return workload.Tweet{
		ID:       id,
		UserID:   uint32(h.wrng.intn(40)),
		Creation: h.creation,
		Message:  msg,
	}
}

func (h *harness) drawOp() wop {
	total := 0
	for _, e := range opWeights {
		total += e.w
	}
	n := h.wrng.intn(total)
	for _, e := range opWeights {
		if n < e.w {
			return e.op
		}
		n -= e.w
	}
	return wUpsert
}

// stepAdmission runs one deterministic admission decision ahead of a
// workload op. A workload-stream draw picks shed steps: the harness
// exhausts the one-slot budget itself, verifies the next arrival is shed
// immediately (the queue is disabled, so no timers or goroutines are
// involved), and skips the op — the model is untouched, mirroring how a
// shed request never reaches the engine. All other steps take the
// fast-path admit and must leave the weighted in-flight gauge at zero.
// handled=true means this step was consumed by a shed.
func (h *harness) stepAdmission() (handled bool, err error) {
	if h.wrng.chance(0.15) {
		block, err := h.adm.Acquire(admission.ClassWrite)
		if err != nil {
			return false, failf("admission blocker acquire failed: %v", err)
		}
		_, shedErr := h.adm.Acquire(admission.ClassRead)
		block()
		if !errors.Is(shedErr, admission.ErrOverloaded) {
			return false, failf("admission over budget returned %v, want ErrOverloaded", shedErr)
		}
		h.trace.Add("op shed")
		return true, nil
	}
	release, err := h.adm.Acquire(admission.ClassWrite)
	if err != nil {
		return false, failf("admission acquire with free budget failed: %v", err)
	}
	release()
	if snap := h.adm.Snapshot(); snap.InFlight != 0 {
		return false, failf("admission in-flight = %d after release, want 0", snap.InFlight)
	}
	return false, nil
}

// step executes one workload op. done=true ends the session (a fault or
// kill surfaced); err is a verdict or infrastructure error.
func (h *harness) step() (bool, error) {
	if h.adm != nil {
		handled, err := h.stepAdmission()
		if handled || err != nil {
			return false, err
		}
	}
	switch h.drawOp() {
	case wUpsert:
		id := h.key()
		rec := h.tweet(id).Encode()
		h.trace.Addf("op upsert %d", id)
		if err := h.db.Upsert(pkOf(id), rec); err != nil {
			h.markFailedWrite(id, rec, err)
			return true, h.failWrite(err)
		}
		h.model.AckWrite(id, rec)

	case wInsert:
		id := h.key()
		rec := h.tweet(id).Encode()
		vis := h.model.Visible(id)
		h.trace.Addf("op insert %d", id)
		ok, err := h.db.Insert(pkOf(id), rec)
		if err != nil {
			// A duplicate insert logs nothing — its maybeFlush can still
			// fail, with no mutation to record.
			if !vis.present {
				h.markFailedWrite(id, rec, err)
			}
			return true, h.failWrite(err)
		}
		if ok == vis.present {
			return false, failf("insert %d returned applied=%v but key is %s", id, ok, vis)
		}
		if ok {
			h.model.AckWrite(id, rec)
		}

	case wDelete:
		id := h.key()
		vis := h.model.Visible(id)
		applies := vis.present || h.blindDeletes()
		h.trace.Addf("op delete %d", id)
		ok, err := h.db.Delete(pkOf(id))
		if err != nil {
			if applies {
				h.markFailedDelete(id, err)
			}
			return true, h.failWrite(err)
		}
		if ok != applies {
			return false, failf("delete %d returned applied=%v but key is %s", id, ok, vis)
		}
		if ok {
			h.model.AckDelete(id)
		}

	case wGet:
		id := h.key()
		h.trace.Addf("op get %d", id)
		obs, err := h.observe(id)
		if err != nil {
			return false, err
		}
		if want := h.model.Visible(id); !obs.equal(want) {
			return false, failf("get %d observed %s, expected %s", id, obs, want)
		}

	case wBatch:
		return h.stepBatch()

	case wQuery:
		lo := uint32(h.wrng.intn(40))
		hi := lo + uint32(h.wrng.intn(8))
		h.trace.Addf("op query %d-%d", lo, hi)
		q, err := h.db.SecondaryQuery("user", workload.UserKey(lo), workload.UserKey(hi),
			lsmstore.QueryOptions{Validation: h.validation})
		if err != nil {
			return false, failf("secondary query failed: %v", err)
		}
		got := map[string]string{}
		for _, r := range q.Records {
			got[string(r.PK)] = string(r.Value)
		}
		want := map[string]string{}
		for _, id := range h.model.Keys() {
			vis := h.model.Visible(id)
			if !vis.present {
				continue
			}
			u, uok := workload.UserIDOf([]byte(vis.val))
			if !uok {
				continue
			}
			uid := uint32(u[0])<<24 | uint32(u[1])<<16 | uint32(u[2])<<8 | uint32(u[3])
			if uid >= lo && uid <= hi {
				want[string(pkOf(id))] = vis.val
			}
		}
		if diff := mapDiff(want, got); diff != "" {
			return false, failf("secondary query %d-%d diverged from model: %s", lo, hi, diff)
		}

	case wScan:
		h.trace.Add("op scan")
		got := map[string]string{}
		if err := h.db.FilterScan(0, 1<<62, func(pk, rec []byte) {
			got[string(pk)] = string(rec)
		}); err != nil {
			return false, failf("filter scan failed: %v", err)
		}
		want := map[string]string{}
		for _, id := range h.model.Keys() {
			if vis := h.model.Visible(id); vis.present {
				want[string(pkOf(id))] = vis.val
			}
		}
		if diff := mapDiff(want, got); diff != "" {
			return false, failf("filter scan diverged from model: %s", diff)
		}

	case wFlush:
		h.trace.Add("op flush")
		if err := h.db.Flush(); err != nil {
			return true, h.failWrite(err)
		}

	case wSoftCrash:
		h.trace.Add("op soft-crash")
		h.db.Crash()
		if err := h.db.Recover(); err != nil {
			return false, failf("recover after soft crash: %v", err)
		}
		// Healthy soft crash: every key is certain, so the replayed state
		// must match the model exactly.
		for _, id := range h.model.Keys() {
			obs, err := h.observe(id)
			if err != nil {
				return false, err
			}
			if want := h.model.Visible(id); !obs.equal(want) {
				return false, failf("after soft crash, key %d observed %s, expected %s", id, obs, want)
			}
		}
	}
	return false, nil
}

// stepBatch applies a small mixed batch through ApplyBatchResults. The
// per-mutation applied flags are predicted by running the mutations
// against the model's exact visible chain; on a batch failure, mutations
// the engine reports as applied stay visible in memory unacknowledged
// (inMem maybes), while the rest may at most have reached the on-disk WAL.
func (h *harness) stepBatch() (bool, error) {
	n := 1 + h.wrng.intn(5)
	muts := make([]lsmstore.Mutation, 0, n)
	ids := make([]uint64, 0, n)
	vals := make([][]byte, 0, n)
	predicted := make([]bool, 0, n)
	running := map[uint64]valState{}
	visible := func(id uint64) valState {
		if s, ok := running[id]; ok {
			return s
		}
		return h.model.Visible(id)
	}
	for i := 0; i < n; i++ {
		id := h.key()
		if h.wrng.chance(0.3) {
			muts = append(muts, lsmstore.Mutation{Op: lsmstore.OpDelete, PK: pkOf(id)})
			ids = append(ids, id)
			vals = append(vals, nil)
			applies := visible(id).present || h.blindDeletes()
			predicted = append(predicted, applies)
			if applies {
				running[id] = valState{}
			}
		} else {
			rec := h.tweet(id).Encode()
			muts = append(muts, lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: pkOf(id), Record: rec})
			ids = append(ids, id)
			vals = append(vals, rec)
			predicted = append(predicted, true)
			running[id] = valState{present: true, val: string(rec)}
		}
	}
	h.trace.Addf("op batch n=%d", n)
	manifestsBefore := h.control.Manifests()
	applied, err := h.db.ApplyBatchResults(muts)
	if err != nil {
		// Classify each predicted mutation of the failed batch.
		//
		// grouped: one covering fsync for the whole batch (it runs even
		// after a mid-batch error and zeroes applied on failure). Without
		// grouping — gc off, or the mutable-bitmap strategy, whose batch
		// handle is nil — every mutation carries its own durable commit,
		// so reported-applied means committed no matter what failed later.
		//
		// uncertain: the error carries commit-path evidence, so the
		// covering fsync (or an individual commit) failed and the affected
		// records were dropped from the memory image. Otherwise only the
		// maintenance path failed and every logged record is durably
		// committed; a predicted-but-unreported mutation is either the
		// errored one (applied, its flag just never set) or one after it
		// (never logged) — an in-memory maybe covers both fates.
		//
		// flushed: a mid-batch flush installed a manifest. A grouped
		// batch's writes sit in the memory components before their
		// covering fsync, so that flush may have made them
		// component-durable even though the batch commit failed.
		//
		// On a sharded store a batch splits into independent per-shard
		// sub-batches, and only the failing shard's applied entries are
		// zeroed — so a reported-applied mutation of an errored batch is
		// durably committed in every mode. The wal-only verdict is kept
		// only when it is provable: single shard, commit-path failure, no
		// mid-batch install; a multi-shard batch cannot attribute the
		// commit failure to this mutation's shard.
		uncertain := h.commitUncertain(err)
		flushed := h.control.Manifests() > manifestsBefore
		for i := range muts {
			if !predicted[i] {
				continue // never applied, never logged
			}
			isDel := muts[i].Op == lsmstore.OpDelete
			ok := len(applied) > i && applied[i]
			switch {
			case ok:
				h.markBatchMut(isDel, ids[i], vals[i], h.workers == 0, true)
			case uncertain && !flushed && h.shards == 1:
				h.markBatchMut(isDel, ids[i], vals[i], false, false)
			default:
				h.markBatchMut(isDel, ids[i], vals[i], false, true)
			}
		}
		return true, h.failWrite(err)
	}
	for i := range muts {
		if applied[i] != predicted[i] {
			return false, failf("batch mutation %d (key %d) applied=%v, predicted %v",
				i, ids[i], applied[i], predicted[i])
		}
		if !applied[i] {
			continue
		}
		if muts[i].Op == lsmstore.OpDelete {
			h.model.AckDelete(ids[i])
		} else {
			h.model.AckWrite(ids[i], vals[i])
		}
	}
	return false, nil
}
