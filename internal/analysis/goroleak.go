package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
)

// GoroLeak enforces goroutine hygiene in non-test code:
//
//   - every `go` launch must be supervised — joined through a
//     sync.WaitGroup-style Add/Done pair, signalled through a
//     context/done/stop channel, or
//     communicating its result over a channel. A bare fire-and-forget
//     goroutine either leaks or races shutdown;
//   - a `go func` body must not capture an enclosing loop variable
//     directly — pass it as an argument or rebind it (`v := v`) so the
//     dependence is explicit and survives toolchains before go1.22.
//
// Supervision is detected syntactically in the goroutine body (and, for
// `go name()` / `go recv.Method()` launches, in the resolved closure or
// same-package method body).
type GoroLeak struct{}

// ID implements Rule.
func (GoroLeak) ID() string { return "goroleak" }

// Doc implements Rule.
func (GoroLeak) Doc() string {
	return "goroutines must be joined (WaitGroup/vclock) or cancellable (context/done channel), and must not capture loop variables"
}

// Check implements Rule.
func (GoroLeak) Check(m *Module) []Diagnostic {
	var ds []Diagnostic
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.AST.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				g := &goroChecker{m: m, pkg: pkg, enclosing: fn.Body}
				g.walk(fn.Body, nil)
				ds = append(ds, g.diags...)
			}
		}
	}
	return ds
}

type goroChecker struct {
	m         *Module
	pkg       *Package
	enclosing *ast.BlockStmt // current function body, for closure resolution
	diags     []Diagnostic
}

// walk descends the statement tree carrying the set of live loop
// variable names (loopVars) visible at each point.
func (g *goroChecker) walk(n ast.Node, loopVars map[string]bool) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.BlockStmt:
		// Walk statements in order so rebinding (`v := v`) before a go
		// statement shadows the loop variable for the rest of the block.
		vars := cloneVars(loopVars)
		for _, s := range n.List {
			if a, ok := s.(*ast.AssignStmt); ok && a.Tok == token.DEFINE {
				g.walk(a, vars)
				for _, lhs := range a.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						delete(vars, id.Name)
					}
				}
				continue
			}
			g.walk(s, vars)
		}
		return
	case *ast.ForStmt:
		vars := cloneVars(loopVars)
		if init, ok := n.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
			for _, lhs := range init.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					vars[id.Name] = true
				}
			}
		}
		g.walk(n.Body, vars)
		return
	case *ast.RangeStmt:
		vars := cloneVars(loopVars)
		if n.Tok == token.DEFINE {
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					vars[id.Name] = true
				}
			}
		}
		g.walk(n.Body, vars)
		return
	case *ast.GoStmt:
		g.checkGo(n, loopVars)
		return
	case *ast.FuncLit:
		// A nested closure is its own supervision scope; loop variables
		// of the outer function still leak into it, so keep the set.
		g.walk(n.Body, loopVars)
		return
	}
	// Generic descent for everything else.
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		switch c.(type) {
		case *ast.BlockStmt, *ast.ForStmt, *ast.RangeStmt, *ast.GoStmt, *ast.FuncLit:
			g.walk(c, loopVars)
			return false
		}
		return true
	})
}

func cloneVars(v map[string]bool) map[string]bool {
	out := make(map[string]bool, len(v))
	for k := range v {
		out[k] = true
	}
	return out
}

// checkGo analyses one `go` statement.
func (g *goroChecker) checkGo(s *ast.GoStmt, loopVars map[string]bool) {
	body := g.resolveBody(s.Call)

	if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
		g.checkLoopCapture(fl, loopVars)
		// Keep descending: the goroutine body may itself launch more.
		g.walk(fl.Body, loopVars)
	}

	if body == nil {
		// Unresolvable target (cross-package call, interface method):
		// supervision may exist at the launch site — Add(1) just before
		// the launch, or result channels in the arguments.
		if g.launchSupervised(s) {
			return
		}
		g.report(s, "goroutine launch with no visible join or cancellation")
		return
	}
	if supervisedBody(body) || g.launchSupervised(s) {
		return
	}
	g.report(s, "goroutine has neither a WaitGroup-style join nor a context/done-channel")
}

func (g *goroChecker) report(s *ast.GoStmt, msg string) {
	g.diags = append(g.diags, Diagnostic{
		RuleID:     "goroleak",
		Pos:        position(g.m, s.Pos()),
		Message:    msg,
		Suggestion: "join it (sync.WaitGroup / vclock.Group) or give it a context/done channel",
	})
}

// checkLoopCapture flags direct references to live loop variables
// inside the goroutine body.
func (g *goroChecker) checkLoopCapture(fl *ast.FuncLit, loopVars map[string]bool) {
	if len(loopVars) == 0 {
		return
	}
	shadowed := map[string]bool{}
	if fl.Type.Params != nil {
		for _, f := range fl.Type.Params.List {
			for _, name := range f.Names {
				shadowed[name.Name] = true
			}
		}
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			ast.Inspect(n.X, func(c ast.Node) bool { g.flagLoopIdent(c, loopVars, shadowed); return true })
			return false
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						shadowed[id.Name] = true
					}
				}
			}
		default:
			g.flagLoopIdent(n, loopVars, shadowed)
		}
		return true
	})
}

func (g *goroChecker) flagLoopIdent(n ast.Node, loopVars, shadowed map[string]bool) {
	id, ok := n.(*ast.Ident)
	if !ok || !loopVars[id.Name] || shadowed[id.Name] {
		return
	}
	g.diags = append(g.diags, Diagnostic{
		RuleID:     "goroleak",
		Pos:        position(g.m, id.Pos()),
		Message:    fmt.Sprintf("goroutine captures loop variable %s", id.Name),
		Suggestion: "pass it as an argument to the func literal or rebind it (" + id.Name + " := " + id.Name + ") before the go statement",
	})
}

// resolveBody finds the body the goroutine will run: a func literal, a
// same-function closure variable, or a same-package method/function.
func (g *goroChecker) resolveBody(call *ast.CallExpr) *ast.BlockStmt {
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		// `go run()` where run was bound to a closure earlier in the
		// enclosing function, or a package-level function.
		if body := findClosure(g.enclosing, fun.Name); body != nil {
			return body
		}
		return g.findFuncDecl(fun.Name, "")
	case *ast.SelectorExpr:
		// `go recv.Method()`: best effort within the same package.
		return g.findFuncDecl(fun.Sel.Name, "method")
	}
	return nil
}

// findClosure locates `name := func(...) {...}` (or `name = func…`) in
// the enclosing function body.
func findClosure(body *ast.BlockStmt, name string) *ast.BlockStmt {
	var found *ast.BlockStmt
	ast.Inspect(body, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range a.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name != name || i >= len(a.Rhs) {
				continue
			}
			if fl, ok := a.Rhs[i].(*ast.FuncLit); ok {
				found = fl.Body
			}
		}
		return true
	})
	return found
}

// findFuncDecl locates a function or method declaration by name in the
// same package ("" kind matches plain functions, "method" methods).
func (g *goroChecker) findFuncDecl(name, kind string) *ast.BlockStmt {
	for _, f := range g.pkg.Files {
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != name || fn.Body == nil {
				continue
			}
			if (kind == "method") != (fn.Recv != nil) {
				continue
			}
			return fn.Body
		}
	}
	return nil
}

// supervisedBody reports whether a goroutine body shows any of the
// accepted supervision signals.
func supervisedBody(body *ast.BlockStmt) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			ok = true // communicates: launcher can observe it
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ok = true
			}
		case *ast.SelectorExpr:
			switch n.Sel.Name {
			case "Done", "Err": // wg.Done / ctx.Done / ctx.Err
				ok = true
			}
		case *ast.Ident:
			switch n.Name {
			case "ctx", "done", "stop", "quit", "closed":
				ok = true
			}
		case *ast.CallExpr:
			if id, isIdent := n.Fun.(*ast.Ident); isIdent && id.Name == "close" {
				ok = true
			}
		}
		return !ok
	})
	return ok
}

// launchSupervised checks the launch site: a `X.Add(1)` immediately
// before the go statement, or a channel-typed argument passed in.
func (g *goroChecker) launchSupervised(s *ast.GoStmt) bool {
	prev := precedingStmt(g.enclosing, s)
	if call, ok := exprCall(prev); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Add" || sel.Sel.Name == "Go") {
			return true
		}
	}
	for _, a := range s.Call.Args {
		if id, ok := a.(*ast.Ident); ok {
			switch id.Name {
			case "ctx", "done", "stop", "quit":
				return true
			}
		}
	}
	return false
}

// precedingStmt finds the statement immediately before target in any
// block of the function body.
func precedingStmt(body *ast.BlockStmt, target ast.Stmt) ast.Stmt {
	var prev ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		b, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, s := range b.List {
			if s == target && i > 0 {
				prev = b.List[i-1]
			}
		}
		return true
	})
	return prev
}

func exprCall(s ast.Stmt) (*ast.CallExpr, bool) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := es.X.(*ast.CallExpr)
	return call, ok
}
