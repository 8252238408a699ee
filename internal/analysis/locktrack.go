package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// This file is the shared engine behind the typed, interprocedural lock
// rules (lockorder, guardedfield, chanhold). It walks every non-test
// function once, classifying sync.Mutex/RWMutex operations with full
// type information (so embedded and promoted mutexes, pointer
// receivers, and aliased imports all resolve correctly), and produces a
// per-function summary of:
//
//   - lock acquisitions, each with the set of locks already held;
//   - static calls to module-internal functions, with the held set at
//     the call site;
//   - blocking channel operations (send, receive, select w/o default);
//   - reads/writes of `// guarded by <mu>`-annotated struct fields,
//     with the held set at the access.
//
// Locks are tracked at two granularities. The *instance* key is the
// rendered source expression ("c.mu"), used for precise within-function
// matching. The *class* key is type-level ("core.dataCache.mu" for a
// field, "pkg.var" for a package-level mutex), the unit the
// interprocedural propagation and the lock-order graph work on: two
// different instances of the same struct share a class, which is
// exactly the granularity at which lock-order cycles are meaningful.
//
// Function literals run where they are passed: a literal handed to a
// synchronous callee (parallel.Run, sort.Slice, a transfer OnChunk
// callback) is summarised separately and linked from its creation point
// with the locks held there, while `go`/`defer` literals start with an
// empty held set and no link, since they run on another goroutine or at
// return.

// heldRef is one lock in a held-set snapshot. obj is the mutex's own
// field or variable object when the expression resolves to one — the
// concurrency tier matches lockers object-precisely (condwait needs to
// know *which* mutex guards a Cond's predicate, not just a class name).
type heldRef struct {
	class string
	inst  string
	pos   token.Pos
	obj   types.Object
}

// acquireEvent is one Lock/RLock with the locks already held.
type acquireEvent struct {
	class string
	inst  string
	pos   token.Pos
	held  []heldRef
}

// callEvent is one static call to a module-internal function (callee)
// or a synchronously-passed function literal (anon).
type callEvent struct {
	callee *types.Func
	anon   *fnSummary
	pos    token.Pos
	held   []heldRef
}

// chanOpEvent is one potentially-blocking channel operation.
type chanOpEvent struct {
	kind string // "send", "receive", "select"
	pos  token.Pos
}

// condOpEvent is one sync.Cond method call (Wait, Signal, Broadcast)
// with the locks held at the call site. The concurrency tier's condwait
// rule joins these with the cond→locker bindings the concflow engine
// extracts from sync.NewCond calls.
type condOpEvent struct {
	kind string       // "Wait", "Signal", "Broadcast"
	obj  types.Object // the cond's field/var object (nil if unresolved)
	inst string       // rendered cond expression ("s.wcond")
	pos  token.Pos
	held []heldRef
}

// writeEvent is one plain store to a struct field or package-level
// variable, with the locks held at the store. The condwait rule uses
// these to verify that a waited predicate is only mutated under the
// cond's locker; fresh stores (constructor initialisation of a local
// still private to the function) are recorded but exempt.
type writeEvent struct {
	obj   types.Object
	pos   token.Pos
	held  []heldRef
	fresh bool
}

// accessEvent is one touch of a `// guarded by`-annotated field.
type accessEvent struct {
	field *types.Var
	inst  string // rendered base expression ("c" for c.items)
	pos   token.Pos
	held  []heldRef
	fresh bool // base is a local still private to this function
}

// fnSummary is the walk result for one function or function literal.
type fnSummary struct {
	fi       *FuncInfo // nil for function literals
	name     string
	pos      token.Pos
	acquires []acquireEvent
	calls    []callEvent
	chanOps  []chanOpEvent
	condOps  []condOpEvent
	writes   []writeEvent
	accesses []accessEvent

	// transAcq maps every lock class this function may acquire, itself
	// or transitively through calls, to a witness chain (computed by
	// propagate).
	transAcq map[string]acqWitness
	// blocks is set when the function may block on a channel, itself or
	// transitively, with a witness chain (computed by propagate).
	blocks *blockWitness
	// entryHeld is the set of lock classes held at every in-module call
	// site of this function (computed by propagate) — the basis for
	// accepting fooLocked-style helpers in guardedfield.
	entryHeld map[string]bool
}

// acqWitness explains how a lock class is reached: the call chain from
// the summarised function to the acquiring one, and the acquisition
// position.
type acqWitness struct {
	chain []string
	pos   token.Pos
}

// blockWitness explains how a channel operation is reached.
type blockWitness struct {
	chain []string
	kind  string
	pos   token.Pos
}

// lockFlow is the whole-module result, cached on the Module.
type lockFlow struct {
	m    *Module
	ti   *TypeInfo
	cg   *CallGraph
	sums []*fnSummary
	// byObj finds the summary for a resolved callee.
	byObj map[*types.Func]*fnSummary
	// guarded maps an annotated struct field to its guard field name.
	guarded map[*types.Var]string
	// owners maps an annotated field to its owning type's class prefix
	// ("core.dataCache"), so guardedfield can form the guard's class.
	owners map[*types.Var]string
	// async is concFlow's asyncParams: the func-typed parameters a
	// callee runs later, on a goroutine or as a clock actor of its own.
	async map[*types.Func]map[int]bool
}

// lockFlowResult caches buildLockFlow's outcome on the Module.
type lockFlowResult struct {
	lf  *lockFlow
	err error
}

// LockFlow builds (once) the typed lock-flow summaries for the module.
func (m *Module) lockFlow() (*lockFlow, error) {
	if m.flow == nil {
		lf, err := buildLockFlow(m)
		m.flow = &lockFlowResult{lf: lf, err: err}
	}
	return m.flow.lf, m.flow.err
}

var guardedByRe = regexp.MustCompile(`guarded by ([\w.]+)`)

func buildLockFlow(m *Module) (*lockFlow, error) {
	ti, err := m.Types()
	if err != nil {
		return nil, err
	}
	cg := buildCallGraph(m, ti)
	lf := &lockFlow{
		m: m, ti: ti, cg: cg,
		byObj:   map[*types.Func]*fnSummary{},
		guarded: map[*types.Var]string{},
		owners:  map[*types.Var]string{},
		async:   asyncWrappers(m, ti, cg),
	}
	lf.collectGuarded()
	for _, fi := range cg.Funcs {
		sum := &fnSummary{
			fi:   fi,
			name: funcDisplayName(m.Path, fi.Obj),
			pos:  fi.Decl.Pos(),
		}
		w := &flowWalker{lf: lf, sum: sum, fresh: map[types.Object]bool{}}
		w.walkBody(fi.Decl.Body, held{})
		lf.sums = append(lf.sums, sum)
		lf.byObj[fi.Obj] = sum
	}
	lf.propagate()
	return lf, nil
}

// collectGuarded finds `// guarded by <mu>` annotations on struct
// fields (doc comment or trailing line comment).
func (lf *lockFlow) collectGuarded() {
	for _, pkg := range lf.m.Packages {
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.AST.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok || st.Fields == nil {
						continue
					}
					owner := trimModule(lf.m.Path, pkg.Path) + "." + ts.Name.Name
					for _, field := range st.Fields.List {
						guard := guardNameOf(field)
						if guard == "" {
							continue
						}
						for _, name := range field.Names {
							if v, ok := lf.ti.Info.Defs[name].(*types.Var); ok {
								lf.guarded[v] = guard
								lf.owners[v] = owner
							}
						}
					}
				}
			}
		}
	}
}

// guardNameOf extracts the guard mutex name from a field's comments.
func guardNameOf(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// held is the walker's lock state: instance key → lock info.
type held map[string]heldRef

func (h held) clone() held {
	out := make(held, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

func (h held) union(o held) held {
	out := h.clone()
	for k, v := range o {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

// snapshot renders the held set as a deterministic slice.
func (h held) snapshot() []heldRef {
	out := make([]heldRef, 0, len(h))
	for _, ref := range h {
		out = append(out, ref)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].inst < out[j].inst })
	return out
}

// lockAct classifies a sync mutex method call.
type lockAct int

const (
	actNone   lockAct = iota
	actLock           // Lock or RLock
	actUnlock         // Unlock or RUnlock
)

// flowWalker walks one function body, accumulating events into sum.
type flowWalker struct {
	lf    *lockFlow
	sum   *fnSummary
	fresh map[types.Object]bool // locals still private to this function
}

// walkBody analyses a statement list reachable with the given entry
// held set. Loops are assumed lock-balanced (lockdiscipline enforces
// it), so a loop body is analysed once from the pre-state.
func (w *flowWalker) walkBody(body *ast.BlockStmt, st held) {
	w.walkStmts(body.List, st)
}

func (w *flowWalker) walkStmts(stmts []ast.Stmt, st held) (held, bool) {
	for _, s := range stmts {
		var term bool
		st, term = w.walkStmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (w *flowWalker) walkStmt(s ast.Stmt, st held) (held, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.scanExpr(s.X, st)
	case *ast.SendStmt:
		w.sum.chanOps = append(w.sum.chanOps, chanOpEvent{kind: "send", pos: s.Pos()})
		w.scanExpr(s.Chan, st)
		w.scanExpr(s.Value, st)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e, st)
		}
		for _, e := range s.Lhs {
			w.scanExpr(e, st)
		}
		w.markFresh(s.Lhs, s.Rhs)
		if s.Tok != token.DEFINE {
			w.recordWrites(s.Lhs, st)
		}
	case *ast.IncDecStmt:
		w.scanExpr(s.X, st)
		w.recordWrites([]ast.Expr{s.X}, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.scanExpr(e, st)
					}
					var lhs []ast.Expr
					for _, name := range vs.Names {
						lhs = append(lhs, name)
					}
					w.markFresh(lhs, vs.Values)
				}
			}
		}
	case *ast.DeferStmt:
		w.walkDefer(s, st)
	case *ast.GoStmt:
		// The goroutine runs on its own stack with nothing held; no call
		// edge links it to this function's held set.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkAnon(fl, nil)
		}
		for _, a := range s.Call.Args {
			w.scanExpr(a, st)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, st)
		}
		return st, true
	case *ast.BranchStmt:
		return st, true
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		w.scanExpr(s.Cond, st)
		thenSt, thenTerm := w.walkStmts(s.Body.List, st.clone())
		elseSt, elseTerm := st.clone(), false
		if s.Else != nil {
			elseSt, elseTerm = w.walkStmt(s.Else, st.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return thenSt.union(elseSt), false
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, st)
		}
		return w.walkCases(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		return w.walkCases(s.Body, st)
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			w.sum.chanOps = append(w.sum.chanOps, chanOpEvent{kind: "select", pos: s.Pos()})
		}
		return w.walkCases(s.Body, st)
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, st)
		}
		w.walkStmts(s.Body.List, st.clone())
		if s.Post != nil {
			w.walkStmt(s.Post, st.clone())
		}
		return st, false
	case *ast.RangeStmt:
		w.scanExpr(s.X, st)
		w.walkStmts(s.Body.List, st.clone())
		return st, false
	}
	return st, false
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, clause := range s.Body.List {
		if c, ok := clause.(*ast.CommClause); ok && c.Comm == nil {
			return true
		}
	}
	return false
}

// walkCases handles switch/type-switch/select bodies: each clause from
// a clone of the branch-point state, merging the fall-throughs.
func (w *flowWalker) walkCases(body *ast.BlockStmt, st held) (held, bool) {
	var merged held
	hasDefault := false
	anyFall := false
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				w.scanExpr(e, st)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			stmts = c.Body
		}
		caseSt, term := w.walkStmts(stmts, st.clone())
		if !term {
			anyFall = true
			if merged == nil {
				merged = caseSt
			} else {
				merged = merged.union(caseSt)
			}
		}
	}
	if !hasDefault {
		if merged == nil {
			merged = st
		} else {
			merged = merged.union(st)
		}
		anyFall = true
	}
	if !anyFall {
		return st, true
	}
	return merged, false
}

// walkDefer records deferred work. A deferred unlock keeps the lock in
// the held set (it is factually held until return); a deferred call or
// literal is approximated as running with the locks held where it was
// registered.
func (w *flowWalker) walkDefer(s *ast.DeferStmt, st held) {
	if act, _, _, _, ok := w.lf.classifyLockCall(w.sum, s.Call); ok && act == actUnlock {
		return
	}
	if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
		w.walkAnon(fl, nil)
		return
	}
	w.recordCall(s.Call, st)
	for _, a := range s.Call.Args {
		w.scanExpr(a, st)
	}
}

// walkAnon summarises a function literal as its own anonymous function.
// linkHeld non-nil links it from its creation point with that held set
// (synchronous callbacks); nil means no link (go/defer literals).
func (w *flowWalker) walkAnon(fl *ast.FuncLit, linkHeld held) {
	anon := &fnSummary{
		name: w.sum.name + " literal",
		pos:  fl.Pos(),
	}
	aw := &flowWalker{lf: w.lf, sum: anon, fresh: w.fresh}
	aw.walkBody(fl.Body, held{})
	if linkHeld != nil {
		w.sum.calls = append(w.sum.calls, callEvent{anon: anon, pos: fl.Pos(), held: linkHeld.snapshot()})
	} else {
		// Still reachable for its own findings, but carries no held set.
		w.sum.calls = append(w.sum.calls, callEvent{anon: anon, pos: fl.Pos()})
	}
}

// markFresh tracks locals bound to freshly-constructed values (&T{…},
// T{…}, new(T)): field accesses through them are private to this
// function until it publishes them, so guardedfield exempts them —
// the standard constructor pattern.
func (w *flowWalker) markFresh(lhs, rhs []ast.Expr) {
	if len(lhs) != len(rhs) {
		return
	}
	for i, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := w.lf.ti.Info.Defs[id]
		if obj == nil {
			obj = w.lf.ti.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		if isFreshExpr(rhs[i]) || w.lf.isPoolGet(rhs[i]) {
			w.fresh[obj] = true
		}
	}
}

// isPoolGet matches sync.Pool Get results (with or without a type
// assertion): a pool hands out exclusively-owned values, so accesses
// through them are private until the value is Put back — the recycling
// cousin of the fresh-constructor exemption.
func (lf *lockFlow) isPoolGet(e ast.Expr) bool {
	if ta, ok := ast.Unparen(e).(*ast.TypeAssertExpr); ok {
		e = ta.X
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" {
		return false
	}
	selection, ok := lf.ti.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	fn, ok := selection.Obj().(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" &&
		namedTypeName(lf.m.Path, selection.Recv()) == "sync.Pool"
}

func isFreshExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// scanExpr walks an expression in evaluation context: lock transitions
// mutate st in place, calls and guarded-field accesses are recorded,
// and function literals are linked as synchronous callbacks.
func (w *flowWalker) scanExpr(e ast.Expr, st held) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.walkAnon(n, st)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.sum.chanOps = append(w.sum.chanOps, chanOpEvent{kind: "receive", pos: n.Pos()})
			}
		case *ast.SelectorExpr:
			w.recordAccess(n, st)
		case *ast.CallExpr:
			if act, class, inst, obj, ok := w.lf.classifyLockCall(w.sum, n); ok {
				switch act {
				case actLock:
					w.sum.acquires = append(w.sum.acquires, acquireEvent{
						class: class, inst: inst, pos: n.Pos(), held: st.snapshot(),
					})
					st[inst] = heldRef{class: class, inst: inst, pos: n.Pos(), obj: obj}
				case actUnlock:
					delete(st, inst)
				}
				return false
			}
			if kind, obj, inst, ok := w.lf.classifyCondCall(n); ok {
				w.sum.condOps = append(w.sum.condOps, condOpEvent{
					kind: kind, obj: obj, inst: inst, pos: n.Pos(), held: st.snapshot(),
				})
				return false
			}
			if async := w.lf.async[calleeOf(w.lf.ti.Info, n)]; len(async) > 0 {
				// A literal the callee runs later is a go statement's:
				// nothing the caller holds is held while it runs.
				w.recordCall(n, st)
				w.scanExpr(n.Fun, st)
				for i, a := range n.Args {
					if fl, ok := ast.Unparen(a).(*ast.FuncLit); ok && async[i] {
						w.walkAnon(fl, nil)
					} else {
						w.scanExpr(a, st)
					}
				}
				return false
			}
			w.recordCall(n, st)
		}
		return true
	})
}

// recordCall registers a static call to a module-internal function.
func (w *flowWalker) recordCall(call *ast.CallExpr, st held) {
	callee := calleeOf(w.lf.ti.Info, call)
	if callee == nil {
		return
	}
	if _, ok := w.lf.cg.ByObj[callee]; !ok {
		return // stdlib or bodyless: nothing to follow
	}
	w.sum.calls = append(w.sum.calls, callEvent{callee: callee, pos: call.Pos(), held: st.snapshot()})
}

// recordAccess registers a touch of a guarded field.
func (w *flowWalker) recordAccess(sel *ast.SelectorExpr, st held) {
	selection, ok := w.lf.ti.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	if _, guarded := w.lf.guarded[field]; !guarded {
		return
	}
	fresh := false
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		obj := w.lf.ti.Info.Uses[id]
		if obj != nil && w.fresh[obj] {
			fresh = true
		}
	}
	w.sum.accesses = append(w.sum.accesses, accessEvent{
		field: field,
		inst:  exprString(sel.X),
		pos:   sel.Sel.Pos(),
		held:  st.snapshot(),
		fresh: fresh,
	})
}

// classifyLockCall decides whether call is a sync.Mutex / sync.RWMutex
// (possibly embedded/promoted) Lock-family method call, and returns the
// lock's class and instance keys plus (when the mutex expression is a
// direct field or variable reference) its object. Read and write locks
// share a key: both matter for ordering, and either satisfies a guard.
func (lf *lockFlow) classifyLockCall(sum *fnSummary, call *ast.CallExpr) (act lockAct, class, inst string, obj types.Object, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return actNone, "", "", nil, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		act = actLock
	case "Unlock", "RUnlock":
		act = actUnlock
	default:
		return actNone, "", "", nil, false
	}
	selection, hasSel := lf.ti.Info.Selections[sel]
	if !hasSel || selection.Kind() != types.MethodVal {
		return actNone, "", "", nil, false
	}
	fn, isFn := selection.Obj().(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return actNone, "", "", nil, false
	}

	recv := selection.Recv()
	index := selection.Index()
	if len(index) > 1 {
		// Promoted through embedding: s.Lock() where s embeds the mutex.
		// No object here — the concurrency tier falls back to class keys.
		names := fieldPathNames(recv, index[:len(index)-1])
		owner := namedTypeName(lf.m.Path, recv)
		if owner == "" {
			owner = sum.name
		}
		class = owner + "." + strings.Join(names, ".")
		inst = exprString(sel.X) + "." + strings.Join(names, ".")
		return act, class, inst, nil, true
	}

	// sel.X is the mutex expression itself.
	class = lf.mutexClass(sum, sel.X)
	inst = exprString(sel.X)
	return act, class, inst, lf.syncVarObj(sel.X), true
}

// classifyCondCall decides whether call is a sync.Cond method call
// (Wait, Signal, Broadcast) and resolves the cond's own field or
// variable object so the condwait rule can join it with the NewCond
// binding the concflow engine records.
func (lf *lockFlow) classifyCondCall(call *ast.CallExpr) (kind string, obj types.Object, inst string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", nil, "", false
	}
	switch sel.Sel.Name {
	case "Wait", "Signal", "Broadcast":
	default:
		return "", nil, "", false
	}
	selection, hasSel := lf.ti.Info.Selections[sel]
	if !hasSel || selection.Kind() != types.MethodVal {
		return "", nil, "", false
	}
	fn, isFn := selection.Obj().(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil, "", false
	}
	if namedTypeName(lf.m.Path, selection.Recv()) != "sync.Cond" {
		return "", nil, "", false // sync.WaitGroup.Wait and friends
	}
	return sel.Sel.Name, lf.syncVarObj(sel.X), exprString(sel.X), true
}

// syncVarObj resolves a sync-object expression (mutex, cond, wait
// group) to the field or variable object it directly names, or nil for
// anything more indirect.
func (lf *lockFlow) syncVarObj(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if selection, ok := lf.ti.Info.Selections[e]; ok && selection.Kind() == types.FieldVal {
			return selection.Obj()
		}
		if v, ok := lf.ti.Info.Uses[e.Sel].(*types.Var); ok {
			return v
		}
	case *ast.Ident:
		if v, ok := lf.ti.Info.Uses[e].(*types.Var); ok {
			return v
		}
	case *ast.StarExpr:
		return lf.syncVarObj(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return lf.syncVarObj(e.X)
		}
	}
	return nil
}

// recordWrites registers plain stores to struct fields and
// package-level variables (DEFINE bindings create new locals and are
// filtered by the caller). Rules, not the engine, decide which targets
// matter.
func (w *flowWalker) recordWrites(lhs []ast.Expr, st held) {
	for _, l := range lhs {
		obj, fresh := w.writeTarget(l)
		if obj == nil {
			continue
		}
		w.sum.writes = append(w.sum.writes, writeEvent{
			obj: obj, pos: l.Pos(), held: st.snapshot(), fresh: fresh,
		})
	}
}

// writeTarget resolves an lvalue to the struct field or package-level
// variable it mutates, if any, and whether the base is a local still
// private to this function. Indexed stores (s.items[k] = v) mutate the
// container the field holds and are attributed to the field.
func (w *flowWalker) writeTarget(l ast.Expr) (types.Object, bool) {
	switch l := ast.Unparen(l).(type) {
	case *ast.SelectorExpr:
		selection, ok := w.lf.ti.Info.Selections[l]
		if !ok || selection.Kind() != types.FieldVal {
			// Package-qualified variable (pkg.v = x).
			if v, ok := w.lf.ti.Info.Uses[l.Sel].(*types.Var); ok &&
				v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v, false
			}
			return nil, false
		}
		field, ok := selection.Obj().(*types.Var)
		if !ok {
			return nil, false
		}
		fresh := false
		if id, ok := ast.Unparen(l.X).(*ast.Ident); ok {
			if obj := w.lf.ti.Info.Uses[id]; obj != nil && w.fresh[obj] {
				fresh = true
			}
		}
		return field, fresh
	case *ast.Ident:
		if l.Name == "_" {
			return nil, false
		}
		if v, ok := w.lf.ti.Info.Uses[l].(*types.Var); ok &&
			v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v, false
		}
	case *ast.IndexExpr:
		return w.writeTarget(l.X)
	}
	return nil, false
}

// mutexClass computes the type-level class key of a mutex expression.
func (lf *lockFlow) mutexClass(sum *fnSummary, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if selection, ok := lf.ti.Info.Selections[e]; ok && selection.Kind() == types.FieldVal {
			owner := namedTypeName(lf.m.Path, selection.Recv())
			if owner != "" {
				return owner + "." + e.Sel.Name
			}
			return sum.name + "." + e.Sel.Name
		}
		// Package-qualified variable (pkg.mu).
		if v, ok := lf.ti.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
			return trimModule(lf.m.Path, v.Pkg().Path()) + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := lf.ti.Info.Uses[e].(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return trimModule(lf.m.Path, v.Pkg().Path()) + "." + v.Name()
			}
			// Function-local mutex: scope the class to the function.
			return sum.name + "·" + v.Name()
		}
	case *ast.StarExpr:
		return lf.mutexClass(sum, e.X)
	case *ast.IndexExpr:
		return lf.mutexClass(sum, e.X) + "[i]"
	}
	return sum.name + "·" + exprString(e)
}

// namedTypeName renders the named type behind t (derefing pointers),
// module-trimmed: "core.dataCache". Returns "" for unnamed types.
func namedTypeName(modPath string, t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return trimModule(modPath, obj.Pkg().Path()) + "." + obj.Name()
}

// trimModule shortens a package path for class keys and diagnostics.
func trimModule(modPath, pkgPath string) string {
	if pkgPath == modPath {
		if i := strings.LastIndex(modPath, "/"); i >= 0 {
			return modPath[i+1:]
		}
		return modPath
	}
	if rest, ok := strings.CutPrefix(pkgPath, modPath+"/internal/"); ok {
		return rest
	}
	if rest, ok := strings.CutPrefix(pkgPath, modPath+"/"); ok {
		return rest
	}
	return pkgPath
}

// fieldPathNames resolves a selection index path to field names.
func fieldPathNames(recv types.Type, index []int) []string {
	var names []string
	t := recv
	for _, i := range index {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			t = n.Underlying()
		}
		s, ok := t.(*types.Struct)
		if !ok || i >= s.NumFields() {
			names = append(names, "?")
			return names
		}
		f := s.Field(i)
		names = append(names, f.Name())
		t = f.Type()
	}
	return names
}

// propagate runs the interprocedural fixpoints over the summaries:
// transitive lock acquisition (for lockorder), transitive channel
// blocking (for chanhold), and entry-held sets (for guardedfield).
func (lf *lockFlow) propagate() {
	// Seed with each function's direct events.
	for _, s := range lf.sums {
		all := append([]*fnSummary{s}, collectAnons(s)...)
		for _, sum := range all {
			sum.transAcq = map[string]acqWitness{}
			for _, a := range sum.acquires {
				if _, ok := sum.transAcq[a.class]; !ok {
					sum.transAcq[a.class] = acqWitness{chain: []string{sum.name}, pos: a.pos}
				}
			}
			if len(sum.chanOps) > 0 {
				op := sum.chanOps[0]
				sum.blocks = &blockWitness{chain: []string{sum.name}, kind: op.kind, pos: op.pos}
			}
		}
	}
	// Fixpoint: pull callees' facts up through call edges.
	order := lf.allSummaries()
	for changed := true; changed; {
		changed = false
		for _, sum := range order {
			for _, c := range sum.calls {
				callee := lf.calleeSummary(c)
				if callee == nil {
					continue
				}
				for _, class := range sortedAcqKeys(callee.transAcq) {
					if _, ok := sum.transAcq[class]; !ok {
						wit := callee.transAcq[class]
						sum.transAcq[class] = acqWitness{
							chain: append([]string{sum.name}, wit.chain...),
							pos:   wit.pos,
						}
						changed = true
					}
				}
				if sum.blocks == nil && callee.blocks != nil {
					sum.blocks = &blockWitness{
						chain: append([]string{sum.name}, callee.blocks.chain...),
						kind:  callee.blocks.kind,
						pos:   callee.blocks.pos,
					}
					changed = true
				}
			}
		}
	}
	lf.propagateEntryHeld(order)
}

// propagateEntryHeld computes, for every function, the lock classes
// held at *every* in-module call site — a decreasing fixpoint from ⊤
// for called functions, ∅ for roots (exported entry points, goroutine
// bodies, anything unresolved).
func (lf *lockFlow) propagateEntryHeld(order []*fnSummary) {
	type site struct {
		caller *fnSummary
		held   []heldRef
	}
	sites := map[*fnSummary][]site{}
	for _, sum := range order {
		for _, c := range sum.calls {
			callee := lf.calleeSummary(c)
			if callee == nil {
				continue
			}
			sites[callee] = append(sites[callee], site{caller: sum, held: c.held})
		}
	}
	// nil entryHeld is the lattice top ("not yet known"); roots — never
	// called in-module, so exported entry points, goroutine bodies and
	// anything reached only dynamically — ground the fixpoint at ∅.
	for _, sum := range order {
		if len(sites[sum]) == 0 {
			sum.entryHeld = map[string]bool{}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, sum := range order {
			ss := sites[sum]
			if len(ss) == 0 {
				continue
			}
			var meet map[string]bool
			for _, s := range ss {
				if s.caller.entryHeld == nil {
					continue // caller still ⊤: contributes nothing yet
				}
				have := map[string]bool{}
				for _, h := range s.held {
					have[h.class] = true
				}
				for c := range s.caller.entryHeld {
					have[c] = true
				}
				if meet == nil {
					meet = have
				} else {
					for _, c := range sortedKeys(meet) {
						if !have[c] {
							delete(meet, c)
						}
					}
				}
			}
			if meet == nil {
				continue // every caller still ⊤
			}
			if sum.entryHeld == nil || !sameSet(sum.entryHeld, meet) {
				sum.entryHeld = meet
				changed = true
			}
		}
	}
	// Anything still ⊤ sits on a caller cycle with no grounded entry:
	// nothing is guaranteed held.
	for _, sum := range order {
		if sum.entryHeld == nil {
			sum.entryHeld = map[string]bool{}
		}
	}
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// allSummaries returns every summary including literals, in
// deterministic declaration order.
func (lf *lockFlow) allSummaries() []*fnSummary {
	var out []*fnSummary
	for _, s := range lf.sums {
		out = append(out, s)
		out = append(out, collectAnons(s)...)
	}
	return out
}

func collectAnons(s *fnSummary) []*fnSummary {
	var out []*fnSummary
	for _, c := range s.calls {
		if c.anon != nil {
			out = append(out, c.anon)
			out = append(out, collectAnons(c.anon)...)
		}
	}
	return out
}

// calleeSummary resolves a call event to the callee's summary.
func (lf *lockFlow) calleeSummary(c callEvent) *fnSummary {
	if c.anon != nil {
		return c.anon
	}
	return lf.byObj[c.callee]
}

// sortedAcqKeys returns the classes of an acquisition map in sorted
// order so propagation is deterministic.
func sortedAcqKeys(m map[string]acqWitness) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
