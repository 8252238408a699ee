package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc enforces the allocation budget on functions annotated
// `// c4h:hotpath` — the per-operation put/fetch spine, where a single
// hidden allocation multiplied by the experiment harness's operation
// count dominates the measured latency. Inside an annotated function it
// flags the allocation shapes Go hides in plain syntax:
//
//   - slice and map composite literals, &T{} literals, and new(T) —
//     a fresh heap object per call;
//   - append to a slice that is not provably preallocated — neither
//     made with make([]T, n, cap) in this function nor reset-reused via
//     b[:0] — so the backing array may grow mid-operation;
//   - non-constant string concatenation (each + copies both halves);
//   - interface boxing: a concrete, non-pointer-shaped, non-constant
//     value passed to an interface parameter, assigned to an interface
//     variable, or returned as an interface result.
//
// make() itself is never flagged — it is the sanctioned preallocation
// primitive — and cold blocks are exempt wholesale: a block whose last
// statement panics or returns a non-nil error is the failure path, not
// the hot path. Function literals inside an annotated function are also
// exempt (deferred and spawned work is off the inline path).
type HotAlloc struct{}

// ID implements Rule.
func (HotAlloc) ID() string { return "hotalloc" }

// Doc implements Rule.
func (HotAlloc) Doc() string {
	return "functions annotated // c4h:hotpath must not allocate: no composite literals, growing appends, string concatenation, or interface boxing"
}

// hotPathAnnotated reports whether the declaration's doc comment
// carries the c4h:hotpath marker.
func hotPathAnnotated(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.Contains(c.Text, "c4h:hotpath") {
			return true
		}
	}
	return false
}

// Check implements Rule.
func (HotAlloc) Check(m *Module) []Diagnostic {
	df, err := m.dataFlow()
	if err != nil {
		return []Diagnostic{typeErrorDiag("hotalloc", err)}
	}
	var ds []Diagnostic
	for _, fi := range df.cg.Funcs {
		if !hotPathAnnotated(fi.Decl) {
			continue
		}
		w := &hotWalker{m: m, df: df, fi: fi}
		w.run()
		ds = append(ds, w.diags...)
	}
	return ds
}

// hotWalker scans one annotated function.
type hotWalker struct {
	m     *Module
	df    *dataFlow
	fi    *FuncInfo
	diags []Diagnostic
	// cold holds the source ranges of failure-path blocks; flaggable
	// nodes inside any of them stay silent.
	cold [][2]token.Pos
	// madeWithCap is the engine's record of slices preallocated with an
	// explicit capacity in this function.
	madeWithCap map[types.Object]bool
	// handledLits marks composite literals already reported as part of
	// an enclosing &T{} so they are not reported twice.
	handledLits map[*ast.CompositeLit]bool
}

func (w *hotWalker) run() {
	// Borrow the engine's kill collection for the preallocation facts;
	// no taint sources are needed.
	du := &defUse{
		df:          w.df,
		fi:          w.fi,
		vars:        map[types.Object]markSet{},
		sorted:      map[types.Object]bool{},
		madeWithCap: map[types.Object]bool{},
		sources:     func(ast.Expr) *taintMark { return nil },
	}
	du.collectKills(w.fi.Decl.Body)
	w.madeWithCap = du.madeWithCap
	w.handledLits = map[*ast.CompositeLit]bool{}
	w.collectCold(w.fi.Decl.Body)

	ast.Inspect(w.fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			w.checkAddrLit(n)
		case *ast.CompositeLit:
			w.checkCompositeLit(n)
		case *ast.CallExpr:
			w.checkCall(n)
		case *ast.BinaryExpr:
			w.checkConcat(n)
		case *ast.AssignStmt:
			w.checkAssignBoxing(n)
		case *ast.ValueSpec:
			w.checkSpecBoxing(n)
		case *ast.ReturnStmt:
			w.checkReturnBoxing(n)
		}
		return true
	})
}

func (w *hotWalker) flag(pos token.Pos, msg, suggestion string) {
	if w.isCold(pos) {
		return
	}
	w.diags = append(w.diags, Diagnostic{
		RuleID:     "hotalloc",
		Pos:        position(w.m, pos),
		Message:    msg + " in hot-path function " + funcDisplayName(w.m.Path, w.fi.Obj),
		Suggestion: suggestion,
	})
}

// collectCold records every block (or case body) whose last statement
// panics or returns a non-nil error — the failure path. The function's
// own body is not such a block: a function that ends by returning an
// error (`return res, err`, or a give-up error after a loop) is hot up
// to that statement, and only the statement itself is cold.
func (w *hotWalker) collectCold(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			if n == body {
				if k := len(n.List); k > 0 && w.stmtIsFailure(n.List[k-1]) {
					w.cold = append(w.cold, [2]token.Pos{n.List[k-1].Pos(), n.List[k-1].End()})
				}
				return true
			}
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		if len(list) == 0 {
			return true
		}
		if w.stmtIsFailure(list[len(list)-1]) {
			first, last := list[0], list[len(list)-1]
			w.cold = append(w.cold, [2]token.Pos{first.Pos(), last.End()})
		}
		return true
	})
}

func (w *hotWalker) stmtIsFailure(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name == "nil" {
				continue
			}
			if tv, ok := w.df.ti.Info.Types[e]; ok && tv.Type != nil && implementsError(tv.Type) {
				return true
			}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := w.df.ti.Info.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
	}
	return false
}

func implementsError(t types.Type) bool {
	errIface, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if errIface == nil {
		return false
	}
	return types.Implements(t, errIface)
}

func (w *hotWalker) isCold(pos token.Pos) bool {
	for _, r := range w.cold {
		if pos >= r[0] && pos < r[1] {
			return true
		}
	}
	return false
}

// checkAddrLit flags &T{…}: the address forces the literal to the heap
// regardless of its kind.
func (w *hotWalker) checkAddrLit(e *ast.UnaryExpr) {
	if e.Op != token.AND {
		return
	}
	lit, ok := ast.Unparen(e.X).(*ast.CompositeLit)
	if !ok {
		return
	}
	w.handledLits[lit] = true
	w.flag(e.Pos(), "heap allocation: &"+litTypeName(w.df.ti, lit)+"{…} literal",
		"reuse a preallocated value (a pool or a caller-provided buffer) instead of allocating per call")
}

// checkCompositeLit flags slice and map literals; plain struct and
// array literals are values and stay on the stack.
func (w *hotWalker) checkCompositeLit(lit *ast.CompositeLit) {
	if w.handledLits[lit] {
		return
	}
	tv, ok := w.df.ti.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		w.flag(lit.Pos(), "heap allocation: slice literal "+litTypeName(w.df.ti, lit)+"{…}",
			"preallocate once with make(…, n, cap) outside the hot path and reuse it")
	case *types.Map:
		w.flag(lit.Pos(), "heap allocation: map literal "+litTypeName(w.df.ti, lit)+"{…}",
			"build the map once at setup time and reuse it per operation")
	}
}

func litTypeName(ti *TypeInfo, lit *ast.CompositeLit) string {
	if lit.Type != nil {
		return exprString(lit.Type)
	}
	if tv, ok := ti.Info.Types[lit]; ok && tv.Type != nil {
		return tv.Type.String()
	}
	return "T"
}

// checkCall handles new(T), growing appends, and boxing at call sites.
func (w *hotWalker) checkCall(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := w.df.ti.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "new":
				w.flag(call.Pos(), "heap allocation: new("+exprString(call.Args[0])+")",
					"reuse a preallocated value instead of allocating per call")
			case "append":
				w.checkAppend(call)
			}
			return
		}
	}
	w.checkArgBoxing(call)
}

// checkAppend flags appends whose base slice is not provably
// preallocated: neither a make-with-cap local nor a b[:0] reset.
func (w *hotWalker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	base := ast.Unparen(call.Args[0])
	if isResetReuse(w.df.ti, base) {
		return
	}
	if id, ok := base.(*ast.Ident); ok {
		obj := w.df.ti.Info.Uses[id]
		if obj == nil {
			obj = w.df.ti.Info.Defs[id]
		}
		if obj != nil && w.madeWithCap[obj] {
			return
		}
	}
	w.flag(call.Pos(), "growing append to "+exprString(call.Args[0])+" may reallocate",
		"preallocate with make(…, 0, cap) or reset-reuse with buf = buf[:0] before the loop")
}

// isResetReuse matches b[:0] — re-filling an existing backing array.
func isResetReuse(ti *TypeInfo, e ast.Expr) bool {
	sl, ok := e.(*ast.SliceExpr)
	if !ok || sl.Low != nil || sl.High == nil {
		return false
	}
	tv, ok := ti.Info.Types[sl.High]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}

// checkConcat flags non-constant string +. Only the topmost node of a
// concat chain reports (a+b+c is one diagnostic, not two).
func (w *hotWalker) checkConcat(e *ast.BinaryExpr) {
	if e.Op != token.ADD || !isStringAdd(w.df.ti, e) {
		return
	}
	// Child of another string add → the parent already reported.
	if w.parentIsStringAdd(e) {
		return
	}
	w.flag(e.Pos(), "string concatenation allocates",
		"write into a reused []byte buffer (append + string conversion at the edge) or precompute the joined value")
}

func isStringAdd(ti *TypeInfo, e *ast.BinaryExpr) bool {
	tv, ok := ti.Info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (w *hotWalker) parentIsStringAdd(e *ast.BinaryExpr) bool {
	found := false
	ast.Inspect(w.fi.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if be, ok := n.(*ast.BinaryExpr); ok && be != e && be.Op == token.ADD && isStringAdd(w.df.ti, be) {
			if ast.Unparen(be.X) == e || ast.Unparen(be.Y) == e {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkArgBoxing flags concrete, non-pointer-shaped, non-constant
// values passed to interface parameters.
func (w *hotWalker) checkArgBoxing(call *ast.CallExpr) {
	tv, ok := w.df.ti.Info.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			continue // f(xs...) passes the slice itself, no boxing
		}
		pt := paramTypeAt(sig, i)
		if pt == nil {
			continue
		}
		w.checkBoxInto(arg, pt, "passed to interface parameter of "+exprString(call.Fun))
	}
}

func paramTypeAt(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if sig.Variadic() && i >= n-1 {
		if sl, ok := sig.Params().At(n - 1).Type().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i < n {
		return sig.Params().At(i).Type()
	}
	return nil
}

// checkAssignBoxing flags concrete values assigned to interface-typed
// targets.
func (w *hotWalker) checkAssignBoxing(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, l := range s.Lhs {
		tv, ok := w.df.ti.Info.Types[l]
		if !ok || tv.Type == nil {
			// `:=` defines: the target's type is the rhs's, no conversion.
			continue
		}
		w.checkBoxInto(s.Rhs[i], tv.Type, "assigned to interface "+exprString(l))
	}
}

func (w *hotWalker) checkSpecBoxing(vs *ast.ValueSpec) {
	if vs.Type == nil || len(vs.Values) == 0 {
		return
	}
	tv, ok := w.df.ti.Info.Types[vs.Type]
	if !ok || tv.Type == nil {
		return
	}
	for _, v := range vs.Values {
		w.checkBoxInto(v, tv.Type, "assigned to interface variable")
	}
}

// checkReturnBoxing flags concrete values returned as interface
// results.
func (w *hotWalker) checkReturnBoxing(ret *ast.ReturnStmt) {
	sig, ok := w.fi.Obj.Type().(*types.Signature)
	if !ok || len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, e := range ret.Results {
		w.checkBoxInto(e, sig.Results().At(i).Type(), "returned as interface result")
	}
}

// checkBoxInto reports arg→interface conversions that heap-allocate:
// the value is concrete, bigger than a pointer word (pointer-shaped
// types are stored directly), and not a constant (constants are boxed
// statically by the compiler).
func (w *hotWalker) checkBoxInto(e ast.Expr, target types.Type, how string) {
	if _, isIface := target.Underlying().(*types.Interface); !isIface {
		return
	}
	tv, ok := w.df.ti.Info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return
	}
	t := tv.Type
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		return // interface→interface copies the header, no new box
	}
	if isPointerShaped(t) {
		return
	}
	w.flag(e.Pos(), "interface boxing: "+t.String()+" value "+how,
		"pass a pointer-shaped value, hoist the conversion out of the hot path, or specialise the callee")
}

// isPointerShaped reports whether values of t fit the interface data
// word directly (no allocation on conversion).
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}
