// Package analysis is a project-specific static-analysis framework for
// the Cloud4Home codebase. It encodes the invariants the paper
// reproduction depends on — deterministic simulation time and
// randomness, lock discipline in the concurrency-heavy layers, the
// import DAG from DESIGN.md, and goroutine hygiene — as machine-checked
// rules that `cmd/c4h-vet` runs over the whole module.
//
// The framework is deliberately stdlib-only (go/ast, go/parser,
// go/token): rules work syntactically with import-alias resolution
// rather than full type information, trading a little precision for
// zero dependencies and sub-second runs. Each rule reports Diagnostics
// with a stable rule ID so findings can be allowlisted individually
// (see Allowlist) while everything else stays fatal.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: where, which rule, what is wrong, and what
// to do about it.
type Diagnostic struct {
	RuleID     string
	Pos        token.Position
	Message    string
	Suggestion string
}

// String renders the diagnostic in the conventional file:line:col form
// consumed by editors and CI log scrapers.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.RuleID, d.Message)
	if d.Suggestion != "" {
		s += " — " + d.Suggestion
	}
	return s
}

// Rule is one invariant checker. Check sees the whole module so rules
// can reason across packages (layering) as well as within files.
type Rule interface {
	// ID is the stable identifier used in output and allowlists.
	ID() string
	// Doc is a one-line description of the invariant the rule guards.
	Doc() string
	// Check returns every violation found in the module.
	Check(m *Module) []Diagnostic
}

// SyntacticRules returns the parse-only rules: they need no type
// information and run in well under a second.
func SyntacticRules() []Rule {
	return []Rule{
		WallClock{},
		GlobalRand{},
		LockDiscipline{},
		Layering{},
	}
}

// TypedRules returns the type-aware, interprocedural rules. They
// type-check the module on first use (stdlib-only, via the source
// importer) and share one call-graph/lock-flow pass.
func TypedRules() []Rule {
	return []Rule{
		LockOrder{},
		GuardedField{},
		MapIter{},
		ChanHold{},
		GoroLeak{},
	}
}

// DataflowRules returns the def-use dataflow rules. They share the
// typed tier's type information and call graph, plus one def-use
// summary pass over every function (see defuse.go).
func DataflowRules() []Rule {
	return []Rule{
		DetFlow{},
		GuardEscape{},
		ErrSink{},
		HotAlloc{},
	}
}

// ConcurrencyRules returns the goroutine-aware rules. They share the
// typed tier's lock-flow summaries plus one concurrency pass over every
// function: spawn sites, sync edges, cond bindings, and shared-variable
// access classification (see concflow.go).
func ConcurrencyRules() []Rule {
	return []Rule{
		AtomicMix{},
		SpawnRace{},
		CondWait{},
		ArenaOwner{},
	}
}

// DefaultRules returns every rule c4h-vet ships, in reporting order:
// the fast syntactic tier first, then the typed interprocedural tier,
// then the def-use dataflow tier, then the goroutine-aware concurrency
// tier.
func DefaultRules() []Rule {
	out := append(SyntacticRules(), TypedRules()...)
	out = append(out, DataflowRules()...)
	return append(out, ConcurrencyRules()...)
}

// SelectRules resolves a rule selector: a rule ID, the group names
// "syntactic", "typed", "dataflow", and "concurrency", or a
// comma-separated list of either. Duplicate selections (e.g.
// "typed,mapiter") collapse to one run of each rule.
func SelectRules(selector string) ([]Rule, error) {
	byID := map[string][]Rule{
		"syntactic":   SyntacticRules(),
		"typed":       TypedRules(),
		"dataflow":    DataflowRules(),
		"concurrency": ConcurrencyRules(),
	}
	for _, r := range DefaultRules() {
		byID[r.ID()] = []Rule{r}
	}
	var out []Rule
	seen := map[string]bool{}
	for _, id := range strings.Split(selector, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		rs, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (see -list)", id)
		}
		for _, r := range rs {
			if seen[r.ID()] {
				continue
			}
			seen[r.ID()] = true
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty rule selector %q", selector)
	}
	return out, nil
}

// Run executes the rules over the module and returns the findings
// sorted by position then rule ID, so output is deterministic.
func Run(m *Module, rules []Rule) []Diagnostic {
	var out []Diagnostic
	for _, r := range rules {
		out = append(out, r.Check(m)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.RuleID < b.RuleID
	})
	return out
}
