package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ArenaOwner mechanizes the ownership contract that overlay.Arena's
// doc comment states in prose: references into a `// c4h:arena`
// annotated interned store (the arena's tree, its nodes, its backing
// storage) may be *borrowed* — read under the arena's lock and passed
// down a call chain — but never *retained* across a mutation point.
// The arena rebalances, reuses, and re-interns nodes when it mutates;
// a reference that survives a mutation dangles into restructured
// storage and reads another member's data.
//
// Retention is anything that parks the reference where a later
// mutation can find it stale:
//
//   - stored into a struct field (other than the annotated field
//     itself, which is the canonical storage) or a package variable;
//   - sent on a channel — the receiver runs after arbitrary mutations;
//   - captured by a goroutine, spawned with `go` or through an async
//     wrapper (vclock's Group.Go), which runs after the borrowing
//     critical section has been released;
//   - returned to a caller, who holds no lock by the time it looks.
//
// Passing the reference as a call argument stays silent: a synchronous
// callee finishes before the borrow ends, which is exactly the
// helper-with-tree-parameter idiom the overlay router uses. The taint
// shares the dataflow tier's alias kill semantics: copying operations
// (append onto a fresh base, string/[]byte conversions, element
// extraction) sever it, so snapshot-under-lock-then-return stays
// clean, and constructor-fresh bases are exempt.
type ArenaOwner struct{}

// ID implements Rule.
func (ArenaOwner) ID() string { return "arenaowner" }

// Doc implements Rule.
func (ArenaOwner) Doc() string {
	return "references into a `// c4h:arena` interned store must not be retained across mutation points (field stores, sends, goroutine captures, returns)"
}

// Check implements Rule.
func (ArenaOwner) Check(m *Module) []Diagnostic {
	cf, err := m.concFlow()
	if err != nil {
		return []Diagnostic{typeErrorDiag("arenaowner", err)}
	}
	if len(cf.arenaFields) == 0 {
		return nil
	}
	df, err := m.dataFlow()
	if err != nil {
		return []Diagnostic{typeErrorDiag("arenaowner", err)}
	}
	var ds []Diagnostic
	for _, fi := range df.cg.Funcs {
		ds = append(ds, checkArenaEscapes(m, cf, df, fi)...)
	}
	return ds
}

// arenaSources classifies arena-reference births: the annotated field's
// address, or its own reference value. Constructor-fresh bases are
// exempt (the arena being built is not yet shared).
func arenaSources(cf *concFlow, df *dataFlow, fresh map[types.Object]bool) sourceFn {
	return func(e ast.Expr) *taintMark {
		switch e := e.(type) {
		case *ast.UnaryExpr:
			if e.Op != token.AND {
				return nil
			}
			sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			if field := arenaFieldOf(cf, df, sel, fresh); field != nil {
				return &taintMark{
					kind: taintArena,
					desc: "&" + exprString(sel.X) + "." + field.Name(),
					pos:  e.Pos(),
				}
			}
		case *ast.SelectorExpr:
			field := arenaFieldOf(cf, df, e, fresh)
			if field == nil || !isRefType(field.Type()) {
				return nil
			}
			return &taintMark{
				kind: taintArena,
				desc: exprString(e.X) + "." + field.Name(),
				pos:  e.Pos(),
			}
		}
		return nil
	}
}

// arenaFieldOf resolves a selector to an annotated arena field, or nil.
func arenaFieldOf(cf *concFlow, df *dataFlow, sel *ast.SelectorExpr, fresh map[types.Object]bool) *types.Var {
	selection, ok := df.ti.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok || !cf.arenaFields[field] {
		return nil
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if obj := df.ti.Info.Uses[id]; obj != nil && fresh[obj] {
			return nil
		}
	}
	return field
}

// checkArenaEscapes analyses one function and reports every retention.
func checkArenaEscapes(m *Module, cf *concFlow, df *dataFlow, fi *FuncInfo) []Diagnostic {
	fresh := collectFresh(df, fi)
	du := df.analyze(fi, arenaSources(cf, df, fresh), nil)

	var ds []Diagnostic
	report := func(n ast.Node, mk taintMark, how, suggestion string) {
		ds = append(ds, Diagnostic{
			RuleID: "arenaowner",
			Pos:    position(m, n.Pos()),
			Message: fmt.Sprintf("arena reference %s is retained %s in %s; the arena may rebalance under it",
				mk.desc, how, funcDisplayName(m.Path, fi.Obj)),
			Suggestion: suggestion,
		})
	}
	arenaMark := func(e ast.Expr) (taintMark, bool) {
		mk, ok := du.exprTaint(e)[taintArena]
		return mk, ok
	}

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, e := range n.Results {
				if mk, ok := arenaMark(e); ok {
					report(n, mk, "via return",
						"return copied values (Member, not node/tree refs), or re-look-up under the arena lock")
				}
			}
		case *ast.SendStmt:
			if mk, ok := arenaMark(n.Value); ok {
				report(n, mk, "via channel send",
					"send copied values; the receiver observes the arena after arbitrary mutations")
			}
		case *ast.AssignStmt:
			checkArenaStores(cf, df, du, n, fresh, report)
		case *ast.GoStmt:
			checkArenaCapture(du, df, n.Call.Args, n.Call.Fun, report)
		case *ast.CallExpr:
			// Goroutine capture through an async wrapper (v.Go(func(){…})).
			if callee := calleeOf(df.ti.Info, n); callee != nil {
				for i := range cf.asyncParams[callee] {
					if i < len(n.Args) {
						checkArenaCapture(du, df, nil, n.Args[i], report)
					}
				}
			}
		}
		return true
	})
	return ds
}

// checkArenaStores flags assignment targets that park an arena
// reference: package variables and struct fields other than the
// annotated storage itself or a constructor-fresh base.
func checkArenaStores(cf *concFlow, df *dataFlow, du *defUse, n *ast.AssignStmt,
	fresh map[types.Object]bool, report func(ast.Node, taintMark, string, string)) {
	for i, l := range n.Lhs {
		if i >= len(n.Rhs) && len(n.Rhs) != 1 {
			break
		}
		rhs := n.Rhs[0]
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		}
		mk, ok := du.exprTaint(rhs)[taintArena]
		if !ok {
			continue
		}
		switch lhs := ast.Unparen(l).(type) {
		case *ast.Ident:
			if obj := du.objOf(lhs); obj != nil && isPkgLevel(obj) {
				report(n, mk, "in package-level variable "+lhs.Name,
					"keep arena references inside the borrowing critical section")
			}
		case *ast.SelectorExpr:
			selection, hasSel := df.ti.Info.Selections[lhs]
			if !hasSel || selection.Kind() != types.FieldVal {
				continue
			}
			field, isVar := selection.Obj().(*types.Var)
			if !isVar || cf.arenaFields[field] {
				continue // the annotated field IS the canonical storage
			}
			if id, isID := ast.Unparen(lhs.X).(*ast.Ident); isID {
				if obj := df.ti.Info.Uses[id]; obj != nil && fresh[obj] {
					continue
				}
			}
			report(n, mk, "in struct field "+exprString(lhs),
				"store a copied value, or re-derive the reference from the arena under its lock at use time")
		}
	}
}

// checkArenaCapture flags arena references reaching a spawned
// goroutine: passed as go-call arguments or captured by the spawned
// literal's body.
func checkArenaCapture(du *defUse, df *dataFlow, args []ast.Expr, fun ast.Expr,
	report func(ast.Node, taintMark, string, string)) {
	const suggestion = "pass copied values to the goroutine, or have it re-read the arena under its lock"
	for _, a := range args {
		if mk, ok := du.exprTaint(a)[taintArena]; ok {
			report(a, mk, "by a spawned goroutine (argument)", suggestion)
		}
	}
	fl, ok := ast.Unparen(fun).(*ast.FuncLit)
	if !ok {
		return
	}
	seen := map[types.Object]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := df.ti.Info.Uses[id]
		if obj == nil || seen[obj] {
			return true
		}
		if obj.Pos() >= fl.Pos() && obj.Pos() <= fl.End() {
			return true // the literal's own local, not a capture
		}
		if set, ok := du.vars[obj]; ok {
			if mk, has := set[taintArena]; has {
				seen[obj] = true
				report(id, mk, "by a spawned goroutine (capture)", suggestion)
			}
		}
		return true
	})
}
