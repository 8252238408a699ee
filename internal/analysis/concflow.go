package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the shared engine behind the concurrency tier
// (atomicmix, spawnrace, condwait, arenaowner). It extends the typed
// tier's call graph and lock-flow summaries with the facts a
// goroutine-aware analysis needs:
//
//   - spawn sites: every `go` statement, plus calls to *async wrapper*
//     functions — module functions that launch a func-typed parameter
//     on a goroutine and return without joining it, or file it as an
//     actor on the clock (vclock.Group.Go, core.Node.spawn). parallel.Run
//     is NOT one: it wg.Waits before returning, so its callbacks are
//     synchronous;
//   - per-spawn access sets: reads and writes of captured locals,
//     struct fields, and package-level variables inside the spawned
//     body (one same-function closure hop deep), each with the lock
//     set held at the access;
//   - spawner-side accesses after the spawn point, with held sets;
//   - synchronization edges the spawner creates: WaitGroup.Wait —
//     called directly or passed as a method value — vclock.Event.Wait,
//     vclock.Group.Wait and channel receives, matched against the
//     WaitGroup.Done, Event.Fire and channel sends inside each goroutine
//     and against the Group whose Go spawned it;
//   - sync.Cond bindings: which locker each NewCond call associates
//     with which cond variable, joined by condwait against the
//     cond-operation events the lock-flow walker records;
//   - `// c4h:arena` annotated fields, the interned stores whose
//     references arenaowner forbids retaining across mutation points.
//
// The engine deliberately borrows the lock-flow walker's coarseness:
// loops are assumed lock-balanced (lockdiscipline enforces it), method
// calls borrow their receiver for the duration of the call (the
// callee's own discipline is checked where it is declared), and
// sync-package primitives are synchronization, not data.

// condBinding records one sync.NewCond call: which cond object it
// initialises and which locker guards its predicate.
type condBinding struct {
	cond      types.Object // the cond field/var (nil if unresolved)
	condName  string       // rendered cond target ("v.cond")
	locker    types.Object // the mutex field/var behind the locker arg
	lockerCls string       // the mutex's class key ("core.Node.mu")
	lockerStr string       // rendered locker expression ("v.mu")
	pos       token.Pos
}

// sharedAccess is one read or write of a shared-capable object: a
// local, a struct field (with its base object for instance matching),
// or a package-level variable.
type sharedAccess struct {
	obj   types.Object
	base  types.Object // base object for field selectors, nil otherwise
	name  string       // rendered expression for diagnostics
	write bool
	pos   token.Pos
	held  []heldRef
}

// spawnSite is one goroutine launch within a scope.
type spawnSite struct {
	pos token.Pos
	via string // "go" or the async wrapper's display name
	// accesses inside the resolved goroutine body (one closure hop).
	accesses []sharedAccess
	// dones holds the WaitGroup objects the goroutine calls Done on, the
	// Events it fires and the vclock.Group whose Go spawned it; sends
	// holds the channel objects it sends on. Both feed join-edge matching.
	dones map[types.Object]bool
	sends map[types.Object]bool
}

// joinEvent is one happens-before edge the spawner creates after a
// spawn: a WaitGroup.Wait (call or method value), an Event.Wait, or a
// channel receive.
type joinEvent struct {
	kind string // "wait" or "receive"
	obj  types.Object
	pos  token.Pos
}

// concScope is the spawn/race context of one declared function.
// Synchronous function literals (callbacks, defers) are walked inline
// as spawner code; spawned literals contribute to their spawn site's
// access set instead.
type concScope struct {
	fi     *FuncInfo
	name   string
	spawns []*spawnSite
	post   []sharedAccess // spawner-side accesses, in walk order
	joins  []joinEvent
}

// concFlow is the whole-module concurrency context, cached on the
// Module.
type concFlow struct {
	m  *Module
	ti *TypeInfo
	cg *CallGraph
	lf *lockFlow

	// asyncParams maps a module function to the indices of func-typed
	// parameters it launches on a goroutine without joining before
	// return.
	asyncParams map[*types.Func]map[int]bool
	// conds holds every NewCond binding in declaration order;
	// condByObj indexes them by the cond's own object.
	conds     []*condBinding
	condByObj map[types.Object]*condBinding
	// arenaFields holds `// c4h:arena` annotated struct fields.
	arenaFields map[*types.Var]bool
	// scopes holds one entry per declared function, in call-graph
	// (package, file, position) order.
	scopes []*concScope
}

// concFlowResult caches buildConcFlow's outcome on the Module.
type concFlowResult struct {
	cf  *concFlow
	err error
}

// concFlow builds (once) the goroutine-aware context for the module.
func (m *Module) concFlow() (*concFlow, error) {
	if m.conc == nil {
		cf, err := buildConcFlow(m)
		m.conc = &concFlowResult{cf: cf, err: err}
	}
	return m.conc.cf, m.conc.err
}

func buildConcFlow(m *Module) (*concFlow, error) {
	lf, err := m.lockFlow()
	if err != nil {
		return nil, err
	}
	cf := &concFlow{
		m: m, ti: lf.ti, cg: lf.cg, lf: lf,
		asyncParams: map[*types.Func]map[int]bool{},
		condByObj:   map[types.Object]*condBinding{},
		arenaFields: map[*types.Var]bool{},
	}
	cf.collectArenaFields()
	cf.collectCondBindings()
	cf.collectAsyncParams()
	for _, fi := range cf.cg.Funcs {
		cf.scopes = append(cf.scopes, cf.buildScope(fi))
	}
	return cf, nil
}

// collectArenaFields finds `// c4h:arena` annotations on struct fields
// (doc comment or trailing line comment), mirroring collectGuarded.
func (cf *concFlow) collectArenaFields() {
	for _, pkg := range cf.m.Packages {
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok || st.Fields == nil {
					return true
				}
				for _, field := range st.Fields.List {
					if !fieldHasMarker(field, "c4h:arena") {
						continue
					}
					for _, name := range field.Names {
						if v, ok := cf.ti.Info.Defs[name].(*types.Var); ok {
							cf.arenaFields[v] = true
						}
					}
				}
				return true
			})
		}
	}
}

func fieldHasMarker(field *ast.Field, marker string) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg != nil && strings.Contains(cg.Text(), marker) {
			return true
		}
	}
	return false
}

// collectCondBindings finds every sync.NewCond call and records which
// cond object it initialises: plain assignments (v.cond = ...), var
// declarations, and composite-literal fields (T{cond: ...}).
func (cf *concFlow) collectCondBindings() {
	bindSum := &fnSummary{name: "cond-binding"}
	record := func(target types.Object, name string, call *ast.CallExpr) {
		arg := call.Args[0]
		lockerExpr := ast.Unparen(arg)
		if ue, ok := lockerExpr.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			lockerExpr = ast.Unparen(ue.X)
		}
		b := &condBinding{
			cond:      target,
			condName:  name,
			locker:    cf.lf.syncVarObj(lockerExpr),
			lockerCls: cf.lf.mutexClass(bindSum, lockerExpr),
			lockerStr: exprString(lockerExpr),
			pos:       call.Pos(),
		}
		cf.conds = append(cf.conds, b)
		if target != nil {
			cf.condByObj[target] = b
		}
	}
	for _, pkg := range cf.m.Packages {
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, r := range n.Rhs {
						call := cf.newCondCall(r)
						if call == nil || i >= len(n.Lhs) {
							continue
						}
						obj, _ := cf.assignTarget(n.Lhs[i])
						record(obj, exprString(n.Lhs[i]), call)
					}
				case *ast.ValueSpec:
					for i, r := range n.Values {
						call := cf.newCondCall(r)
						if call == nil || i >= len(n.Names) {
							continue
						}
						record(cf.ti.Info.Defs[n.Names[i]], n.Names[i].Name, call)
					}
				case *ast.KeyValueExpr:
					call := cf.newCondCall(n.Value)
					if call == nil {
						return true
					}
					if key, ok := n.Key.(*ast.Ident); ok {
						// Struct keys in composite literals are recorded in Uses.
						record(cf.ti.Info.Uses[key], key.Name, call)
					}
				}
				return true
			})
		}
	}
}

// newCondCall matches sync.NewCond(l) and returns the call, or nil.
func (cf *concFlow) newCondCall(e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	fn := calleeOf(cf.ti.Info, call)
	if fn == nil || fn.Name() != "NewCond" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil
	}
	return call
}

// assignTarget resolves an assignment lhs to a field or variable
// object (the same resolution writeTarget uses, minus freshness).
func (cf *concFlow) assignTarget(l ast.Expr) (types.Object, types.Object) {
	switch l := ast.Unparen(l).(type) {
	case *ast.SelectorExpr:
		if selection, ok := cf.ti.Info.Selections[l]; ok && selection.Kind() == types.FieldVal {
			return selection.Obj(), baseIdentObj(cf.ti, l.X)
		}
		if v, ok := cf.ti.Info.Uses[l.Sel].(*types.Var); ok {
			return v, nil
		}
	case *ast.Ident:
		if obj := cf.ti.Info.Defs[l]; obj != nil {
			return obj, nil
		}
		return cf.ti.Info.Uses[l], nil
	}
	return nil, nil
}

// baseIdentObj unwraps a selector base to its root identifier's object
// ("s" in s.buf.woken), or nil for anything more complex.
func baseIdentObj(ti *TypeInfo, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return ti.Info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// collectAsyncParams computes, to a fixpoint, which functions launch a
// func-typed parameter on a goroutine without joining before return.
// A body "joins" when it calls WaitGroup.Wait or blocks on a channel
// receive outside any spawned literal — then its callbacks finish
// before it returns and its callers see synchronous execution.
//
// vclock.Group.Go is seeded first: it files fn as an actor that runs
// once the caller gives up its turn, so to the caller fn runs later, as
// if launched on a goroutine, though no go statement launches it.
func (cf *concFlow) collectAsyncParams() {
	for _, fi := range cf.cg.Funcs {
		if funcDisplayName(cf.m.Path, fi.Obj) == "(*vclock.Group).Go" {
			cf.asyncParams[fi.Obj] = map[int]bool{0: true}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range cf.cg.Funcs {
			if _, done := cf.asyncParams[fi.Obj]; done {
				continue
			}
			launched := cf.launchedParams(fi)
			if len(launched) == 0 {
				continue
			}
			if cf.joinsBeforeReturn(fi) {
				continue
			}
			cf.asyncParams[fi.Obj] = launched
			changed = true
		}
	}
}

// launchedParams finds func-typed parameters reached by a goroutine
// launch: `go p(...)`, `go func(){ ... p() ... }()`, `go run()` where
// run is a closure calling p, or p passed at an async index of an
// already-known async wrapper.
func (cf *concFlow) launchedParams(fi *FuncInfo) map[int]bool {
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	paramIdx := map[types.Object]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if _, isFunc := p.Type().Underlying().(*types.Signature); isFunc {
			paramIdx[p] = i
		}
	}
	if len(paramIdx) == 0 {
		return nil
	}
	launched := map[int]bool{}
	markCalls := func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if i, ok := paramIdx[cf.ti.Info.Uses[id]]; ok {
				launched[i] = true
			}
			return true
		})
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, isGo := goStmtCall(n)
		if !isGo {
			if c, ok := n.(*ast.CallExpr); ok {
				// Forwarding to a known async wrapper.
				if callee := calleeOf(cf.ti.Info, c); callee != nil {
					for i := range cf.asyncParams[callee] {
						if i < len(c.Args) {
							markCalls(c.Args[i])
							if body := cf.resolveSpawnBody(fi.Decl.Body, c.Args[i]); body != nil {
								markCalls(body)
							}
						}
					}
				}
			}
			return true
		}
		markCalls(call.Fun)
		if body := cf.resolveSpawnBody(fi.Decl.Body, call.Fun); body != nil {
			markCalls(body)
		}
		return true
	})
	return launched
}

func goStmtCall(n ast.Node) (*ast.CallExpr, bool) {
	g, ok := n.(*ast.GoStmt)
	if !ok {
		return nil, false
	}
	return g.Call, true
}

// resolveSpawnBody resolves a spawned expression to the statement list
// that will run on the new goroutine: a literal's own body, or the body
// of a same-function closure the expression names.
func (cf *concFlow) resolveSpawnBody(enclosing *ast.BlockStmt, e ast.Expr) *ast.BlockStmt {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return e.Body
	case *ast.Ident:
		return findClosure(enclosing, e.Name)
	}
	return nil
}

// joinsBeforeReturn reports whether the function body contains a
// WaitGroup.Wait or Event.Wait call or a channel receive outside spawned
// literals.
func (cf *concFlow) joinsBeforeReturn(fi *FuncInfo) bool {
	joins := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if joins {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // the goroutine's own blocking is not a join
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) == 0 && cf.joinMethod(sel) == "wait" {
				joins = true
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				joins = true
				return false
			}
		}
		return true
	})
	return joins
}

// joinMethod classifies a selection of a join primitive's method:
// sync.WaitGroup.Wait, vclock.Event.Wait and vclock.Group.Wait are the
// spawner's half ("wait"), WaitGroup.Done and Event.Fire the goroutine's
// ("signal"), and vclock.Group.Go a spawn its Group's Wait joins
// ("spawn"). Anything else is "".
// An Event is a join only when the finisher fires it before it returns
// (DESIGN.md, "Joins on the virtual clock"); the rule takes that as
// given, as it takes a Done for granted.
func (cf *concFlow) joinMethod(sel *ast.SelectorExpr) string {
	selection, ok := cf.ti.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return ""
	}
	switch namedTypeName(cf.m.Path, selection.Recv()) + "." + sel.Sel.Name {
	case "sync.WaitGroup.Wait", "vclock.Event.Wait", "vclock.Group.Wait":
		return "wait"
	case "sync.WaitGroup.Done", "vclock.Event.Fire":
		return "signal"
	case "vclock.Group.Go":
		return "spawn"
	}
	return ""
}

// isSyncType reports whether t (possibly behind a pointer) is a sync or
// sync/atomic named type: those objects are synchronization primitives,
// not shared data, and their own methods establish the ordering the
// rules reason about.
func isSyncType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	p := n.Obj().Pkg().Path()
	return p == "sync" || p == "sync/atomic"
}

// buildScope walks one declared function and produces its spawn/race
// context.
func (cf *concFlow) buildScope(fi *FuncInfo) *concScope {
	scope := &concScope{
		fi:   fi,
		name: funcDisplayName(cf.m.Path, fi.Obj),
	}
	w := &concWalker{
		cf:      cf,
		scope:   scope,
		sum:     &fnSummary{name: scope.name},
		spawned: map[ast.Node]bool{},
		visited: map[*ast.BlockStmt]bool{},
	}
	w.markSpawnedClosures(fi.Decl.Body)
	w.walkStmts(fi.Decl.Body.List, held{})
	return scope
}

// concWalker walks one function body in statement order, maintaining
// the held-lock set and routing accesses either to the scope's
// spawner-side list or (inside spawned bodies) to a spawn site.
type concWalker struct {
	cf    *concFlow
	scope *concScope
	sum   *fnSummary // naming context for classifyLockCall
	// spawned marks FuncLit nodes that are spawn targets; their bodies
	// are walked from the spawn site, not inline.
	spawned map[ast.Node]bool
	// visited guards the one-hop closure merge against cycles.
	visited map[*ast.BlockStmt]bool
	// cur is the spawn site currently being filled; nil in spawner
	// context.
	cur *spawnSite
}

// markSpawnedClosures pre-marks literals assigned to locals that are
// later go-launched (or passed to async wrappers), so their bodies are
// not also counted as spawner-side code.
func (w *concWalker) markSpawnedClosures(body *ast.BlockStmt) {
	mark := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if b := findClosure(body, id.Name); b != nil {
				w.spawned[closureLitOf(body, b)] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			mark(n.Call.Fun)
		case *ast.CallExpr:
			if callee := calleeOf(w.cf.ti.Info, n); callee != nil {
				for i := range w.cf.asyncParams[callee] {
					if i < len(n.Args) {
						mark(n.Args[i])
					}
				}
			}
		}
		return true
	})
}

// closureLitOf finds the FuncLit node whose body is b.
func closureLitOf(root ast.Node, b *ast.BlockStmt) ast.Node {
	var lit ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body == b {
			lit = fl
			return false
		}
		return true
	})
	return lit
}

func (w *concWalker) walkStmts(stmts []ast.Stmt, st held) {
	for _, s := range stmts {
		w.walkStmt(s, st)
	}
}

func (w *concWalker) walkStmt(s ast.Stmt, st held) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.scanExpr(s.X, st, false)
	case *ast.SendStmt:
		if w.cur != nil {
			if obj := baseIdentObj(w.cf.ti, s.Chan); obj != nil {
				w.cur.sends[obj] = true
			}
		}
		w.scanExpr(s.Chan, st, false)
		w.scanExpr(s.Value, st, false)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e, st, false)
		}
		for _, e := range s.Lhs {
			w.scanExpr(e, st, s.Tok != token.DEFINE)
		}
	case *ast.IncDecStmt:
		w.scanExpr(s.X, st, true)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.scanExpr(e, st, false)
					}
				}
			}
		}
	case *ast.DeferStmt:
		if act, _, _, _, ok := w.cf.lf.classifyLockCall(w.sum, s.Call); ok && act == actUnlock {
			return // deferred unlock: the lock stays held until return
		}
		w.scanExpr(s.Call, st, false)
	case *ast.GoStmt:
		w.handleSpawn(s.Call, "go", s.Call.Fun, s.Call.Args, st)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, st, false)
		}
	case *ast.BlockStmt:
		w.walkStmts(s.List, st.clone())
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.scanExpr(s.Cond, st, false)
		w.walkStmts(s.Body.List, st.clone())
		if s.Else != nil {
			w.walkStmt(s.Else, st.clone())
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, st, false)
		}
		w.walkClauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.walkClauses(s.Body, st)
	case *ast.SelectStmt:
		w.walkClauses(s.Body, st)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, st, false)
		}
		w.walkStmts(s.Body.List, st.clone())
		if s.Post != nil {
			w.walkStmt(s.Post, st.clone())
		}
	case *ast.RangeStmt:
		if w.cur == nil {
			if tv, ok := w.cf.ti.Info.Types[s.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					w.recordJoin("receive", s.X, s.Pos())
				}
			}
		}
		w.scanExpr(s.X, st, false)
		w.walkStmts(s.Body.List, st.clone())
	}
}

func (w *concWalker) walkClauses(body *ast.BlockStmt, st held) {
	for _, clause := range body.List {
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.scanExpr(e, st, false)
			}
			w.walkStmts(c.Body, st.clone())
		case *ast.CommClause:
			if c.Comm != nil {
				w.walkStmt(c.Comm, st.clone())
			}
			w.walkStmts(c.Body, st.clone())
		}
	}
}

// handleSpawn records a spawn site and walks the goroutine body into
// it. Inside an already-spawned body, nested launches just extend the
// current site's access set — everything in the subtree runs off the
// spawner's goroutine either way.
func (w *concWalker) handleSpawn(call *ast.CallExpr, via string, fun ast.Expr, args []ast.Expr, st held) {
	for _, a := range args {
		w.scanExpr(a, st, false) // spawn arguments evaluate on the spawner
	}
	body := w.resolveBody(fun)
	if w.cur != nil {
		if body != nil && !w.visited[body] {
			w.visited[body] = true
			w.walkStmts(body.List, held{})
		}
		return
	}
	site := &spawnSite{
		pos:   call.Pos(),
		via:   via,
		dones: map[types.Object]bool{},
		sends: map[types.Object]bool{},
	}
	w.scope.spawns = append(w.scope.spawns, site)
	if body == nil {
		return
	}
	w.cur = site
	w.visited[body] = true
	w.walkStmts(body.List, held{})
	w.visited[body] = false
	w.cur = nil
}

// resolveBody resolves a spawned expression to its body: a literal, a
// same-function closure, or a statically-resolved module function.
func (w *concWalker) resolveBody(fun ast.Expr) *ast.BlockStmt {
	if w.scope.fi != nil {
		if b := w.cf.resolveSpawnBody(w.scope.fi.Decl.Body, fun); b != nil {
			return b
		}
	}
	if callee := calleeOf(w.cf.ti.Info, &ast.CallExpr{Fun: fun}); callee != nil {
		if fi, ok := w.cf.cg.ByObj[callee]; ok {
			return fi.Decl.Body
		}
	}
	return nil
}

func (w *concWalker) recordJoin(kind string, chanOrWg ast.Expr, pos token.Pos) {
	obj := baseIdentObj(w.cf.ti, chanOrWg)
	if obj == nil {
		return
	}
	w.scope.joins = append(w.scope.joins, joinEvent{kind: kind, obj: obj, pos: pos})
}

// scanExpr walks an expression, recording accesses (write applies to
// the outermost assignable target only) and lock/cond/join operations.
func (w *concWalker) scanExpr(e ast.Expr, st held, write bool) {
	switch e := ast.Unparen(e).(type) {
	case nil:
	case *ast.Ident:
		w.recordIdent(e, write, st)
	case *ast.SelectorExpr:
		w.recordSelector(e, write, st)
	case *ast.IndexExpr:
		w.scanExpr(e.X, st, write)
		w.scanExpr(e.Index, st, false)
	case *ast.SliceExpr:
		w.scanExpr(e.X, st, false)
		for _, b := range []ast.Expr{e.Low, e.High, e.Max} {
			w.scanExpr(b, st, false)
		}
	case *ast.StarExpr:
		w.scanExpr(e.X, st, write)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW && w.cur == nil {
			w.recordJoin("receive", e.X, e.Pos())
		}
		w.scanExpr(e.X, st, false)
	case *ast.BinaryExpr:
		w.scanExpr(e.X, st, false)
		w.scanExpr(e.Y, st, false)
	case *ast.CallExpr:
		w.scanCall(e, st)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				w.scanExpr(kv.Value, st, false)
				continue
			}
			w.scanExpr(elt, st, false)
		}
	case *ast.TypeAssertExpr:
		w.scanExpr(e.X, st, false)
	case *ast.KeyValueExpr:
		w.scanExpr(e.Value, st, false)
	case *ast.FuncLit:
		if !w.spawned[ast.Node(e)] {
			// Synchronous callback or defer: runs as spawner code.
			w.walkStmts(e.Body.List, st.clone())
		}
	}
}

// scanCall classifies a call: lock transitions mutate the held set,
// cond and WaitGroup operations feed their own event streams, async
// wrapper calls become spawn sites, and anything else borrows its
// receiver and arguments as reads.
func (w *concWalker) scanCall(call *ast.CallExpr, st held) {
	if act, class, inst, obj, ok := w.cf.lf.classifyLockCall(w.sum, call); ok {
		switch act {
		case actLock:
			st[inst] = heldRef{class: class, inst: inst, pos: call.Pos(), obj: obj}
		case actUnlock:
			delete(st, inst)
		}
		return
	}
	if _, _, _, ok := w.cf.lf.classifyCondCall(call); ok {
		return // cond ops are the lock-flow walker's events, not data
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && len(call.Args) == 0 {
		switch w.cf.joinMethod(sel) {
		case "wait":
			if w.cur == nil {
				w.recordJoin("wait", sel.X, call.Pos())
			}
			return
		case "signal":
			if w.cur != nil {
				if obj := baseIdentObj(w.cf.ti, sel.X); obj != nil {
					w.cur.dones[obj] = true
				}
			}
			return
		}
	}
	if callee := calleeOf(w.cf.ti.Info, call); callee != nil {
		if async := w.cf.asyncParams[callee]; len(async) > 0 {
			first := len(w.scope.spawns)
			for i, a := range call.Args {
				if async[i] {
					w.handleSpawn(call, funcDisplayName(w.cf.m.Path, callee), a, nil, st)
				} else {
					w.scanExpr(a, st, false)
				}
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				// What a Group's Go spawns, that Group's Wait joins.
				if obj := baseIdentObj(w.cf.ti, sel.X); obj != nil && w.cf.joinMethod(sel) == "spawn" {
					for _, site := range w.scope.spawns[first:] {
						site.dones[obj] = true
					}
				}
				w.scanExpr(sel.X, st, false)
			}
			return
		}
	}
	// One-hop closure merge inside a goroutine: a spawned body calling
	// a same-function closure does that closure's accesses too.
	if w.cur != nil && w.scope.fi != nil {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b := findClosure(w.scope.fi.Decl.Body, id.Name); b != nil && !w.visited[b] {
				w.visited[b] = true
				w.walkStmts(b.List, st.clone())
			}
		}
	}
	w.scanExpr(call.Fun, st, false)
	for _, a := range call.Args {
		w.scanExpr(a, st, false)
	}
}

// recordIdent records a local or package-level variable access.
func (w *concWalker) recordIdent(id *ast.Ident, write bool, st held) {
	if id.Name == "_" {
		return
	}
	v, ok := w.cf.ti.Info.Uses[id].(*types.Var)
	if !ok || v.IsField() || isSyncType(v.Type()) {
		return
	}
	w.record(sharedAccess{
		obj: v, name: id.Name, write: write, pos: id.Pos(), held: st.snapshot(),
	})
}

// recordSelector records a field access (with its base object for
// instance matching) or a package-qualified variable access. Method
// selections borrow the receiver: the base is scanned as a read.
func (w *concWalker) recordSelector(sel *ast.SelectorExpr, write bool, st held) {
	selection, ok := w.cf.ti.Info.Selections[sel]
	if !ok {
		// pkg.Var or a type conversion; resolve through Uses.
		if v, ok := w.cf.ti.Info.Uses[sel.Sel].(*types.Var); ok && !isSyncType(v.Type()) {
			w.record(sharedAccess{
				obj: v, name: exprString(sel), write: write, pos: sel.Pos(), held: st.snapshot(),
			})
		}
		return
	}
	if selection.Kind() != types.FieldVal {
		// Method value (wg.Wait passed to a helper): a join edge.
		if w.cur == nil && w.cf.joinMethod(sel) == "wait" {
			w.recordJoin("wait", sel.X, sel.Pos())
			return
		}
		w.scanExpr(sel.X, st, false)
		return
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok || isSyncType(field.Type()) {
		w.scanExpr(sel.X, st, false)
		return
	}
	w.record(sharedAccess{
		obj:   field,
		base:  baseIdentObj(w.cf.ti, sel.X),
		name:  exprString(sel),
		write: write,
		pos:   sel.Sel.Pos(),
		held:  st.snapshot(),
	})
	// The base itself is only borrowed to reach the field.
}

func (w *concWalker) record(a sharedAccess) {
	if a.obj == nil {
		return
	}
	if w.cur != nil {
		w.cur.accesses = append(w.cur.accesses, a)
		return
	}
	w.scope.post = append(w.scope.post, a)
}
