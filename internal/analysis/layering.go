package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// layerDAG is the module's import DAG, as documented in DESIGN.md
// ("Static analysis & invariants"). Keys and values are module-relative
// package paths ("" is the root cloud4home package). A package may
// import exactly the internal packages listed for it; stdlib imports
// are always allowed.
//
// Two layers get wildcard treatment instead of an entry here:
//
//   - cmd/* binaries sit on top and may import anything in the module;
//   - examples/* demonstrate the public API and may import only the
//     root package.
//
// TestLayeringDAGMatchesModule asserts this table stays exactly equal
// to the real import graph, so it cannot silently rot.
var layerDAG = map[string][]string{
	// Root public API: the curated re-export surface.
	"": {
		"internal/cloudsim", "internal/core", "internal/kv",
		"internal/machine", "internal/monitor", "internal/netsim",
		"internal/objstore", "internal/policy", "internal/services",
		"internal/vclock",
	},

	// Leaf packages: no sibling imports at all.
	"internal/ids":       {},
	"internal/vclock":    {},
	"internal/command":   {},
	"internal/trace":     {},
	"internal/parallel":  {},
	"internal/detrand":   {},
	"internal/erasure":   {},
	"internal/canonjson": {},
	"internal/objstore":  {},

	// Self-contained subsystems over the leaves.
	"internal/rbtree":  {"internal/ids"},
	"internal/netsim":  {"internal/detrand", "internal/vclock"},
	"internal/machine": {"internal/vclock"},
	"internal/xenchan": {"internal/vclock"},
	"internal/policy":  {"internal/objstore"},
	"internal/overlay": {"internal/ids", "internal/rbtree"},
	"internal/kv":      {"internal/ids", "internal/overlay"},
	"internal/monitor": {
		"internal/ids", "internal/kv", "internal/machine",
		"internal/objstore", "internal/vclock",
	},
	"internal/services": {
		"internal/ids", "internal/kv", "internal/machine",
		"internal/parallel",
	},
	"internal/cloudsim": {
		"internal/machine", "internal/netsim", "internal/objstore",
		"internal/vclock",
	},

	// The orchestration layer: core may see everything below it, and
	// only daemon/cluster/experiments (and cmd) may see core. In
	// particular overlay, kv, and xenchan must never import core.
	"internal/core": {
		"internal/canonjson", "internal/cloudsim", "internal/command",
		"internal/erasure", "internal/ids", "internal/kv", "internal/machine",
		"internal/monitor", "internal/netsim", "internal/objstore",
		"internal/overlay", "internal/parallel", "internal/policy",
		"internal/services", "internal/vclock", "internal/xenchan",
	},
	"internal/daemon": {
		"internal/canonjson", "internal/command", "internal/core",
		"internal/vclock",
	},
	"internal/cluster": {
		"internal/cloudsim", "internal/core", "internal/kv",
		"internal/machine", "internal/vclock",
	},

	// The evaluation harness: importable only from cmd (nothing below
	// lists it as a dependency). netsim is allowed for the availability
	// experiment's scripted fault schedules.
	"internal/experiments": {
		"internal/cloudsim", "internal/cluster", "internal/core",
		"internal/ids", "internal/kv", "internal/machine",
		"internal/netsim", "internal/policy", "internal/services",
		"internal/trace", "internal/vclock", "internal/xenchan",
	},

	// Test-only integration package and this analyzer: stdlib only.
	"internal/integration": {},
	"internal/analysis":    {},
}

// LayerDAG returns a copy of the allowed-import table (for the test
// that keeps it synchronized with the real import graph).
func LayerDAG() map[string][]string {
	out := make(map[string][]string, len(layerDAG))
	for k, v := range layerDAG {
		out[k] = append([]string(nil), v...)
	}
	return out
}

// Layering enforces the import DAG above on every non-test file.
type Layering struct{}

// ID implements Rule.
func (Layering) ID() string { return "layering" }

// Doc implements Rule.
func (Layering) Doc() string {
	return "packages may only import what the DESIGN.md import DAG allows"
}

// Check implements Rule.
func (Layering) Check(m *Module) []Diagnostic {
	var ds []Diagnostic
	for _, pkg := range m.Packages {
		if strings.HasPrefix(pkg.Rel, "cmd/") {
			continue // binaries may import anything in the module
		}
		example := strings.HasPrefix(pkg.Rel, "examples/")
		allowed, known := layerDAG[pkg.Rel]
		if !known && !example {
			ds = append(ds, Diagnostic{
				RuleID:     "layering",
				Pos:        position(m, pkg.Files[0].AST.Package),
				Message:    fmt.Sprintf("package %s is not in the layering DAG", pkg.Path),
				Suggestion: "add it to internal/analysis/layering.go and the DESIGN.md import DAG",
			})
			continue
		}
		allowSet := make(map[string]bool, len(allowed))
		for _, a := range allowed {
			allowSet[a] = true
		}
		for _, f := range pkg.Files {
			if f.Test {
				continue // tests may reach across layers
			}
			for _, imp := range f.AST.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				rel, internal := relPkg(m.Path, p)
				if !internal {
					continue
				}
				if example {
					if rel != "" {
						ds = append(ds, Diagnostic{
							RuleID:     "layering",
							Pos:        position(m, imp.Pos()),
							Message:    fmt.Sprintf("example %s imports %s", pkg.Path, p),
							Suggestion: "examples must use only the public cloud4home API",
						})
					}
					continue
				}
				if !allowSet[rel] {
					ds = append(ds, Diagnostic{
						RuleID:     "layering",
						Pos:        position(m, imp.Pos()),
						Message:    fmt.Sprintf("%s must not import %s (allowed: %s)", pkg.Path, p, allowedList(allowed)),
						Suggestion: "respect the DESIGN.md import DAG or update it deliberately in layering.go",
					})
				}
			}
		}
	}
	return ds
}

func allowedList(allowed []string) string {
	if len(allowed) == 0 {
		return "stdlib only"
	}
	short := make([]string, len(allowed))
	for i, a := range allowed {
		short[i] = strings.TrimPrefix(a, "internal/")
	}
	sort.Strings(short)
	return strings.Join(short, ", ")
}
