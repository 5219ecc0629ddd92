// Package lockio implements the lsmlint analyzer that forbids blocking
// operations while a configured hot mutex is held.
//
// PR 5 (group-commit WAL) made a latency invariant load-bearing: the
// filedev device mutex must never be held across a WAL fsync, or the next
// commit group's appends serialize behind the in-flight fsync and group
// commit degenerates to one fsync per record. The same discipline applies to
// wal.Log's mutex around the log's device calls. lockio encodes the rule: inside a
// function that holds one of the configured mutexes, no blocking operation
// may be reached — directly or through a same-package call chain.
//
// Blocking operations are: (*os.File).Sync, any net package I/O, channel
// sends/receives (including range-over-channel and select without a
// default), time.Sleep, (*sync.WaitGroup).Wait, and the configured extras
// (by default the log's device I/O — storage.Device.AppendWAL, which
// writes, and storage.Device.RotateWAL, which fsyncs — and
// wal.GroupCommitter.Wait).
//
// The analysis is intentionally intra-package: call summaries propagate
// through static calls within the package under analysis, branch state is
// tracked linearly (a lock released on every path before the blocking
// call is not flagged), and goroutine/function-literal bodies are skipped
// — a closure does not run under the caller's critical section. Justified
// exceptions carry //lsm:lockio-ok <reason> on the flagged line, the line
// above, or the enclosing function's doc comment.
package lockio

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

const directive = "lockio-ok"

// Analyzer is the lockio pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc:  "report blocking operations (fsync, net I/O, channel ops, time.Sleep) reached while a configured hot mutex is held",
	Run:  run,
}

var (
	mutexList    string
	blockingList string
)

func init() {
	Analyzer.Flags.StringVar(&mutexList, "mutexes",
		"repro/internal/storage/filedev.Device.mu,repro/internal/wal.Log.mu,repro/internal/readcache.segment.mu,repro/internal/obs.SlowLog.mu,repro/internal/obs.Journal.mu,repro/internal/admission.Controller.mu",
		"comma-separated pkgpath.Type.field mutexes the invariant protects")
	Analyzer.Flags.StringVar(&blockingList, "blocking",
		"repro/internal/storage.Device.AppendWAL,repro/internal/storage.Device.RotateWAL,repro/internal/wal.GroupCommitter.Wait",
		"comma-separated pkgpath.Type.Method (or pkgpath.Func) treated as blocking, besides the built-ins")
}

// builtinBlocking maps normalized callee IDs to a human description.
var builtinBlocking = map[string]string{
	"os.File.Sync":        "fsync via (*os.File).Sync",
	"time.Sleep":          "time.Sleep",
	"sync.WaitGroup.Wait": "(*sync.WaitGroup).Wait",
}

func run(pass *analysis.Pass) (any, error) {
	pass.CheckDirectives(directive)
	mutexes := splitList(mutexList)
	extra := make(map[string]bool)
	for _, b := range splitList(blockingList) {
		extra[b] = true
	}

	s := &state{
		pass:    pass,
		mutexes: mutexes,
		extra:   extra,
		direct:  make(map[*types.Func]*site),
		calls:   make(map[*types.Func][]*types.Func),
		decls:   make(map[*types.Func]*ast.FuncDecl),
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				s.decls[fn] = fd
			}
		}
	}
	s.summarize()
	for _, fd := range s.decls {
		w := &walker{state: s, held: make(map[string]token.Pos)}
		w.stmts(fd.Body.List)
	}
	return nil, nil
}

type site struct {
	pos  token.Pos
	desc string
	via  *types.Func // same-package callee the blocking op is reached through
}

type state struct {
	pass    *analysis.Pass
	mutexes []string
	extra   map[string]bool
	decls   map[*types.Func]*ast.FuncDecl
	direct  map[*types.Func]*site // first direct blocking site per function
	calls   map[*types.Func][]*types.Func
	summary map[*types.Func]*site // transitive: how this function blocks
}

// summarize computes, for every function in the package, whether calling
// it can block, and through which chain — a fixed point over the static
// same-package call graph.
func (s *state) summarize() {
	for fn, fd := range s.decls {
		fn := fn
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // runs later, not under this frame
			case *ast.GoStmt:
				// go f(args): f runs on its own goroutine and does not
				// block this frame, but args are evaluated here.
				for _, a := range n.Call.Args {
					ast.Inspect(a, visit)
				}
				return false
			case *ast.CallExpr:
				if desc := s.blockingCall(n); desc != "" {
					if s.direct[fn] == nil {
						s.direct[fn] = &site{pos: n.Pos(), desc: desc}
					}
				} else if callee := s.callee(n); callee != nil {
					if _, local := s.decls[callee]; local {
						s.calls[fn] = append(s.calls[fn], callee)
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && s.direct[fn] == nil {
					s.direct[fn] = &site{pos: n.Pos(), desc: "channel receive"}
				}
			case *ast.SendStmt:
				if s.direct[fn] == nil {
					s.direct[fn] = &site{pos: n.Pos(), desc: "channel send"}
				}
			case *ast.SelectStmt:
				if s.direct[fn] == nil && !selectHasDefault(n) {
					s.direct[fn] = &site{pos: n.Pos(), desc: "blocking select"}
				}
			case *ast.RangeStmt:
				if s.direct[fn] == nil && s.isChan(n.X) {
					s.direct[fn] = &site{pos: n.Pos(), desc: "range over channel"}
				}
			}
			return true
		}
		ast.Inspect(fd.Body, visit)
	}
	s.summary = make(map[*types.Func]*site)
	for fn, st := range s.direct {
		s.summary[fn] = st
	}
	for changed := true; changed; {
		changed = false
		for fn, callees := range s.calls {
			if s.summary[fn] != nil {
				continue
			}
			for _, c := range callees {
				if via := s.summary[c]; via != nil {
					s.summary[fn] = &site{pos: via.pos, desc: via.desc, via: c}
					changed = true
					break
				}
			}
		}
	}
}

// chain renders the same-package call chain from fn down to the primitive
// blocking operation, for the diagnostic message.
func (s *state) chain(fn *types.Func) string {
	var parts []string
	for fn != nil {
		parts = append(parts, fn.Name())
		st := s.summary[fn]
		if st == nil {
			break
		}
		fn = st.via
	}
	return strings.Join(parts, " -> ")
}

// blockingCall classifies a call as a primitive blocking operation.
func (s *state) blockingCall(call *ast.CallExpr) string {
	fn := s.callee(call)
	if fn == nil {
		return ""
	}
	id := funcID(fn)
	if d, ok := builtinBlocking[id]; ok && d != "" {
		return d
	}
	if s.extra[id] {
		return id
	}
	if p := fn.Pkg(); p != nil && p.Path() == "net" {
		return "net I/O (" + id + ")"
	}
	return ""
}

func (s *state) callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := s.pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := s.pass.TypesInfo.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := s.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return f // package-qualified call
		}
	}
	return nil
}

func (s *state) isChan(e ast.Expr) bool {
	t := s.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// mutexOf resolves an expression like d.mu to a configured mutex spec.
func (s *state) mutexOf(e ast.Expr) (string, bool) {
	se, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	sel, ok := s.pass.TypesInfo.Selections[se]
	if !ok {
		return "", false
	}
	field, ok := sel.Obj().(*types.Var)
	if !ok || !field.IsField() {
		return "", false
	}
	recv := sel.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	spec := named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field.Name()
	for _, m := range s.mutexes {
		if m == spec {
			return spec, true
		}
	}
	return "", false
}

// walker tracks which configured mutexes are held along the statement
// sequence of one function body.
type walker struct {
	*state
	held map[string]token.Pos // mutex spec -> Lock() position
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

// branch walks nested statements with a copy of the held set: state
// changes inside a conditionally-executed branch (an early unlock+return,
// a lock on one arm) must not leak into the fallthrough path.
func (w *walker) branch(list []ast.Stmt) {
	saved := w.held
	w.held = make(map[string]token.Pos, len(saved))
	for k, v := range saved {
		w.held[k] = v
	}
	w.stmts(list)
	w.held = saved
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && w.lockOp(call) {
			return
		}
		w.expr(s.X)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock to function end: the unlock runs
		// on return, not here, so the held state must not change.
		if w.isLockOp(s.Call) {
			return
		}
		w.expr(s.Call)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.branch(s.Body.List)
		if s.Else != nil {
			w.branch([]ast.Stmt{s.Else})
		}
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.ForStmt:
		w.stmt(s.Init)
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.branch(append(append([]ast.Stmt{}, s.Body.List...), s.Post))
	case *ast.RangeStmt:
		if w.isChan(s.X) {
			w.report(s.Pos(), "range over channel")
		}
		w.expr(s.X)
		w.branch(s.Body.List)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			w.branch(c.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		for _, c := range s.Body.List {
			w.branch(c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			w.report(s.Pos(), "blocking select")
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			w.branch(append([]ast.Stmt{cc.Comm}, cc.Body...))
		}
	case *ast.SendStmt:
		w.report(s.Pos(), "channel send")
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.GoStmt:
		// The spawned body runs outside this critical section; argument
		// expressions are evaluated here, so still check them.
		for _, a := range s.Call.Args {
			w.expr(a)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	}
}

// expr reports blocking operations inside an expression evaluated at the
// current lock state. Function literals are skipped: their bodies execute
// when called, not where written.
func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if w.lockOp(n) {
				return false
			}
			w.checkCall(n)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.report(n.Pos(), "channel receive")
			}
		}
		return true
	})
}

// checkCall reports a call that blocks — primitively, or transitively
// through a same-package callee — while a configured mutex is held.
func (w *walker) checkCall(call *ast.CallExpr) {
	if len(w.held) == 0 {
		return
	}
	if desc := w.blockingCall(call); desc != "" {
		w.report(call.Pos(), desc)
		return
	}
	callee := w.callee(call)
	if callee == nil {
		return
	}
	if via := w.summary[callee]; via != nil {
		w.report(call.Pos(), fmt.Sprintf("%s (via %s)", via.desc, w.chain(callee)))
	}
}

// lockOp updates the held set for Lock/Unlock calls on configured
// mutexes, reporting whether the call was one.
func (w *walker) lockOp(call *ast.CallExpr) bool {
	spec, name, ok := w.asLockOp(call)
	if !ok {
		return false
	}
	switch name {
	case "Lock", "RLock":
		w.held[spec] = call.Pos()
	case "Unlock", "RUnlock":
		delete(w.held, spec)
	}
	return true
}

// isLockOp reports whether the call is a Lock/Unlock on a configured
// mutex, without touching the held state.
func (w *walker) isLockOp(call *ast.CallExpr) bool {
	_, _, ok := w.asLockOp(call)
	return ok
}

func (w *walker) asLockOp(call *ast.CallExpr) (spec, name string, ok bool) {
	se, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	spec, ok = w.mutexOf(se.X)
	if !ok {
		return "", "", false
	}
	switch se.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return spec, se.Sel.Name, true
	}
	return "", "", false
}

func (w *walker) report(pos token.Pos, desc string) {
	if len(w.held) == 0 {
		return
	}
	if w.pass.Suppressed(directive, pos) {
		return
	}
	for spec, lockPos := range w.held {
		w.pass.Reportf(pos, "%s while %s is held (locked at %s); release the mutex first or annotate //lsm:lockio-ok <why>",
			desc, spec, w.pass.Fset.Position(lockPos))
		return // one report per site, naming one held mutex
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

func funcID(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
