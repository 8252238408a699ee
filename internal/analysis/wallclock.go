package analysis

import (
	"fmt"
	"go/ast"
	"strings"
)

// simPackages are the module-relative packages whose cost models and
// schedules must run on injected (virtual) time and seeded randomness.
// Reading the wall clock or the global math/rand source in any of them
// makes Table I and Fig. 4–8 drift between runs.
var simPackages = map[string]bool{
	"internal/netsim":      true,
	"internal/cloudsim":    true,
	"internal/xenchan":     true,
	"internal/experiments": true,
	"internal/machine":     true,
	"internal/trace":       true,
}

// wallClockExempt lists internal packages allowed to touch the wall
// clock: vclock is the injection boundary (its paced clock waits on the
// wall clock), and the analyzer itself is tooling, not runtime code.
var wallClockExempt = map[string]bool{
	"internal/vclock":   true,
	"internal/analysis": true,
}

// wallClockScope reports whether the rule applies to a package. The
// whole internal tree is in scope — not just the simulation packages —
// because every runtime layer charges time to an injected vclock.Clock
// (that is how the same code runs deterministically under experiments,
// unpaced, and in real time under cmd/c4hd, paced). cmd and examples
// measure host time and are exempt.
func wallClockScope(rel string) bool {
	if wallClockExempt[rel] {
		return false
	}
	return rel == "" || strings.HasPrefix(rel, "internal/")
}

// wallClockFuncs are the time-package functions that read or block on
// the wall clock. time.Duration arithmetic and constants stay legal.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// WallClock flags wall-clock reads inside simulation packages, where
// all time must be charged to an injected vclock.Clock so experiment
// runs are deterministic and replayable.
type WallClock struct{}

// ID implements Rule.
func (WallClock) ID() string { return "wallclock" }

// Doc implements Rule.
func (WallClock) Doc() string {
	return "simulation packages must charge time to an injected vclock.Clock, never the wall clock"
}

// Check implements Rule.
func (WallClock) Check(m *Module) []Diagnostic {
	var ds []Diagnostic
	for _, pkg := range m.Packages {
		if !wallClockScope(pkg.Rel) {
			continue
		}
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			timeName, ok := importName(f.AST, "time")
			if !ok {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := pkgCall(call, timeName); wallClockFuncs[fn] {
					ds = append(ds, Diagnostic{
						RuleID:     "wallclock",
						Pos:        position(m, call.Pos()),
						Message:    fmt.Sprintf("wall-clock call time.%s in clock-injected package %s", fn, pkg.Path),
						Suggestion: "inject a vclock.Clock and charge time to it (clock.Now / clock.Sleep)",
					})
				}
				return true
			})
		}
	}
	return ds
}
