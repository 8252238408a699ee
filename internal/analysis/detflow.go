package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// DetFlow is the value-level complement to the call-site determinism
// rules (wallclock, globalrand, mapiter). Those ban nondeterministic
// *operations* in simulation code; this rule follows nondeterministic
// *values* — wall-clock readings, global-rand draws, and map-iteration
// arrangements — through the def-use graph until they reach an
// observable output:
//
//   - a return value (the caller now holds run-varying data);
//   - an OpStats counter (any sync/atomic Add/Store/Swap — experiments
//     compare counter snapshots run-to-run);
//   - the trace event stream (internal/trace calls);
//   - a KV payload (internal/kv calls — replicated state must be
//     bit-identical on every node).
//
// Propagation is the def-use engine's: assignments, arithmetic,
// conversions, container round-trips, and one call deep through the
// call graph (a helper returning time.Now()-derived data taints its
// callers' values). Map-iteration taint is an order taint, so it is
// discharged by order-erasing operations: sorting the carrier slice,
// storing into a map, or folding through a commutative integer
// reduction — the collect-then-sort idiom stays silent here exactly as
// it does under mapiter.
type DetFlow struct{}

// ID implements Rule.
func (DetFlow) ID() string { return "detflow" }

// Doc implements Rule.
func (DetFlow) Doc() string {
	return "nondeterministic values (wall clock, global rand, map order) must not flow into returns, counters, traces, or KV payloads"
}

// detflowScope mirrors wallClockScope: every clock-injected runtime
// package is in scope; vclock (the injection boundary) and the analyzer
// itself are not, and neither are cmd/examples (host-time territory).
func detflowScope(rel string) bool {
	return wallClockScope(rel)
}

// detflowSources classifies the direct sources: wall-clock reads and
// package-level math/rand draws. Map-iteration order is sourced inside
// the engine (range statements), and seeded-from-wall-clock rand flows
// out of these automatically (rand.NewSource(time.Now()…) propagates
// the wall mark through the constructor into every later draw).
func detflowSources(df *dataFlow, fi *FuncInfo) sourceFn {
	return func(e ast.Expr) *taintMark {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return nil
		}
		callee := calleeOf(df.ti.Info, call)
		if callee == nil || callee.Pkg() == nil {
			return nil
		}
		sig, _ := callee.Type().(*types.Signature)
		switch callee.Pkg().Path() {
		case "time":
			if sig != nil && sig.Recv() == nil && wallClockFuncs[callee.Name()] {
				return &taintMark{kind: taintWall, desc: "time." + callee.Name(), pos: call.Pos()}
			}
		case "math/rand", "math/rand/v2":
			// Package-level draws only: methods on a threaded, seeded
			// *rand.Rand are the sanctioned pattern.
			if sig != nil && sig.Recv() == nil && globalRandFuncs[callee.Name()] {
				return &taintMark{kind: taintRand, desc: "rand." + callee.Name(), pos: call.Pos()}
			}
		}
		return nil
	}
}

// Check implements Rule.
func (DetFlow) Check(m *Module) []Diagnostic {
	df, err := m.dataFlow()
	if err != nil {
		return []Diagnostic{typeErrorDiag("detflow", err)}
	}
	var ds []Diagnostic
	for _, fi := range df.cg.Funcs {
		if !detflowScope(fi.Pkg.Rel) {
			continue
		}
		du := df.analyze(fi, detflowSources(df, fi), df.retSums)
		ds = append(ds, checkDetFlowSinks(m, df, du, fi)...)
	}
	return ds
}

// checkDetFlowSinks scans one analysed function for tainted values
// reaching the four sink families.
func checkDetFlowSinks(m *Module, df *dataFlow, du *defUse, fi *FuncInfo) []Diagnostic {
	var ds []Diagnostic
	report := func(n ast.Node, marks markSet, sink string) {
		for _, mk := range marks.sortedMarks() {
			if mk.kind == taintAlias {
				continue
			}
			src := position(m, mk.pos)
			ds = append(ds, Diagnostic{
				RuleID: "detflow",
				Pos:    position(m, n.Pos()),
				Message: fmt.Sprintf("%s value (from %s at line %d) flows into %s in %s",
					mk.kind, mk.desc, src.Line, sink, funcDisplayName(m.Path, fi.Obj)),
				Suggestion: "derive the value deterministically (vclock time, seeded rand, sorted iteration) before it reaches an output",
			})
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Literal bodies have their own returns; sink calls inside
			// them still belong to this function's walk.
			for _, site := range detflowLiteralCalls(n) {
				if marks, sink := du.detflowCallSink(m, site); len(marks) > 0 {
					report(site, marks, sink)
				}
			}
			return false
		case *ast.ReturnStmt:
			for i, set := range du.returnSiteTaint(n) {
				if len(set) > 0 {
					report(n, set, fmt.Sprintf("return value %d", i))
				}
			}
		case *ast.CallExpr:
			if marks, sink := du.detflowCallSink(m, n); len(marks) > 0 {
				report(n, marks, sink)
			}
		}
		return true
	})
	return ds
}

// detflowLiteralCalls collects the call expressions inside a function
// literal so call sinks (counters, trace, kv) are still checked there.
func detflowLiteralCalls(fl *ast.FuncLit) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// detflowCallSink decides whether a call is a detflow sink with tainted
// arguments, returning the offending marks and a sink description.
func (du *defUse) detflowCallSink(m *Module, call *ast.CallExpr) (markSet, string) {
	callee := calleeOf(du.df.ti.Info, call)
	if callee == nil || callee.Pkg() == nil {
		return nil, ""
	}
	argTaint := func() markSet {
		out := markSet{}
		for _, a := range call.Args {
			out.addAll(du.exprTaint(a))
		}
		return out
	}
	switch pkg := callee.Pkg().Path(); {
	case pkg == "sync/atomic":
		switch callee.Name() {
		case "Add", "Store", "Swap", "CompareAndSwap":
			if marks := argTaint(); len(marks) > 0 {
				return marks, "an atomic counter (" + exprString(call.Fun) + ")"
			}
		}
	case pkg == m.Path+"/internal/trace":
		if marks := argTaint(); len(marks) > 0 {
			return marks, "the trace event stream (trace." + callee.Name() + ")"
		}
	case pkg == m.Path+"/internal/kv":
		if marks := argTaint(); len(marks) > 0 {
			return marks, "a KV payload (kv." + calleeShortName(m.Path, callee) + ")"
		}
	}
	return nil, ""
}

// calleeShortName renders "Store.Put" style names for method sinks.
func calleeShortName(modPath string, fn *types.Func) string {
	full := funcDisplayName(modPath, fn)
	if i := strings.LastIndex(full, "."); i >= 0 && strings.Contains(full, ")") {
		return full
	}
	if i := strings.Index(full, "."); i >= 0 {
		return full[i+1:]
	}
	return full
}
